"""Two-layer storage: exclusivity, retention, and randomized sequences.

`run_storage_sequence` is the shared driver for the randomized checks: it
applies a seeded stream of operations against a StorageInstance and a plain
dict model side by side, asserting the layer invariants after every step.
The acceptance suite reruns it at larger scale.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vguard.errors import NotFound, StorageError
from vguard.ledger import Transaction
from vguard.storage import (GOSSIPER, PROPOSER, VALIDATOR, RetentionPolicy,
                            StorageInstance, StorageMaster)

DELTA = 100_000


def tx_at(k: int) -> Transaction:
    return Transaction(window_start_us=k * DELTA, window_len_us=DELTA,
                       entries=(), membership_links=())


def test_register_then_archive_keeps_layers_exclusive():
    smi = StorageInstance(1, PROPOSER)
    tx = tx_at(0)
    assert smi.register_to_temp(tx, None, now_us=10)
    assert smi.layer_of(tx.tx_hash) == "temp"
    assert smi.lookup(tx.tx_hash).stored_at_us == 10

    smi.move_to_perm(tx.tx_hash)
    assert smi.layer_of(tx.tx_hash) == "perm"
    assert tx.tx_hash not in smi.temp
    assert smi.lookup(tx.tx_hash) is not None

    # archived data refuses the hot layer
    assert not smi.register_to_temp(tx, None, now_us=20)
    assert smi.rejected_reinserts == 1
    assert smi.layer_of(tx.tx_hash) == "perm"

    smi.move_to_perm(tx.tx_hash)     # already archived: no-op
    smi.delete_perm(tx.tx_hash)
    assert smi.layer_of(tx.tx_hash) is None


def test_temp_register_is_idempotent():
    smi = StorageInstance(1, VALIDATOR)
    tx = tx_at(0)
    assert smi.register_to_temp(tx, None, now_us=5)
    assert smi.register_to_temp(tx, None, now_us=99)
    assert smi.lookup(tx.tx_hash).stored_at_us == 5   # first write wins
    assert len(smi.temp) == 1


def test_missing_hashes_raise():
    smi = StorageInstance(1, GOSSIPER)
    with pytest.raises(NotFound):
        smi.move_to_perm(b"\x00" * 32)
    with pytest.raises(NotFound):
        smi.delete_perm(b"\x00" * 32)


def test_unknown_role_rejected():
    with pytest.raises(StorageError):
        StorageInstance(1, "archivist")


def test_age_expiry_is_inclusive_at_ttl():
    smi = StorageInstance(1, VALIDATOR)
    policy = RetentionPolicy(temp_ttl_us=100)
    for k, stamp in enumerate([0, 50, 100]):
        smi.register_to_temp(tx_at(k), None, now_us=stamp)
    removed = smi.cleanup_temp(now_us=100, policy=policy)
    assert removed == 1              # only the age-100 entry expired
    assert smi.layer_of(tx_at(0).tx_hash) is None
    assert smi.layer_of(tx_at(1).tx_hash) == "temp"
    assert smi.layer_of(tx_at(2).tx_hash) == "temp"


def test_fifo_cap_evicts_oldest_first():
    smi = StorageInstance(1, VALIDATOR)
    policy = RetentionPolicy(temp_ttl_us=10**9, temp_cap=3)
    for k in range(6):
        smi.register_to_temp(tx_at(k), None, now_us=k)
    removed = smi.cleanup_temp(now_us=100, policy=policy)
    assert removed == 3
    survivors = {smi.temp[h].tx.window_start_us // DELTA for h in smi.temp}
    assert survivors == {3, 4, 5}


def test_archived_entries_ignore_retention():
    smi = StorageInstance(1, VALIDATOR)
    policy = RetentionPolicy(temp_ttl_us=10, temp_cap=0)
    smi.register_to_temp(tx_at(0), None, now_us=0)
    smi.move_to_perm(tx_at(0).tx_hash)
    assert smi.cleanup_temp(now_us=10**6, policy=policy) == 0
    assert smi.layer_of(tx_at(0).tx_hash) == "perm"


def test_master_allows_one_proposer_interface_per_node():
    master = StorageMaster(7)
    smi = master.get(1, PROPOSER)
    assert master.get(1, PROPOSER) is smi           # same interface back
    master.get(1, VALIDATOR)
    master.get(2, VALIDATOR)
    master.get(2, GOSSIPER)
    with pytest.raises(StorageError):
        master.get(2, PROPOSER)      # a node can front at most one instance


def test_master_cleanup_and_totals():
    master = StorageMaster(7, RetentionPolicy(temp_ttl_us=100))
    a = master.get(1, PROPOSER)
    b = master.get(2, VALIDATOR)
    a.register_to_temp(tx_at(0), None, now_us=0)
    b.register_to_temp(tx_at(1), None, now_us=0)
    b.register_to_temp(tx_at(2), None, now_us=90)
    b.move_to_perm(tx_at(2).tx_hash)
    assert master.totals() == {"temp": 2, "perm": 1, "rejected_reinserts": 0}
    assert master.cleanup(now_us=120) == 2
    assert master.totals() == {"temp": 0, "perm": 1, "rejected_reinserts": 0}


# -- randomized sequences ---------------------------------------------------


def run_storage_sequence(seed: int, steps: int) -> dict[str, int]:
    """Random register/archive/delete/cleanup stream checked against a
    dict model after every operation. Returns operation counts."""
    rng = np.random.default_rng(seed)
    smi = StorageInstance(9, VALIDATOR)
    policy = RetentionPolicy(temp_ttl_us=500, temp_cap=40)
    model_temp: dict[bytes, int] = {}
    model_perm: set[bytes] = set()
    counts = {"register": 0, "archive": 0, "delete": 0, "cleanup": 0,
              "rejected": 0}
    now = 0
    universe = [tx_at(k) for k in range(60)]

    for _ in range(steps):
        now += int(rng.integers(1, 50))
        op = rng.choice(["register", "archive", "delete", "cleanup"],
                        p=[0.55, 0.25, 0.05, 0.15])
        tx = universe[int(rng.integers(len(universe)))]
        h = tx.tx_hash
        if op == "register":
            counts["register"] += 1
            ok = smi.register_to_temp(tx, None, now_us=now)
            if h in model_perm:
                assert not ok
                counts["rejected"] += 1
            else:
                assert ok
                model_temp.setdefault(h, now)
        elif op == "archive":
            counts["archive"] += 1
            if h in model_temp or h in model_perm:
                smi.move_to_perm(h)
                model_temp.pop(h, None)
                model_perm.add(h)
            else:
                with pytest.raises(NotFound):
                    smi.move_to_perm(h)
        elif op == "delete":
            counts["delete"] += 1
            if h in model_perm:
                smi.delete_perm(h)
                model_perm.discard(h)
            else:
                with pytest.raises(NotFound):
                    smi.delete_perm(h)
        else:
            counts["cleanup"] += 1
            removed = smi.cleanup_temp(now_us=now, policy=policy)
            expired = [k for k, stamp in model_temp.items()
                       if now - stamp >= policy.temp_ttl_us]
            for k in expired:
                del model_temp[k]
            overflow = len(model_temp) - policy.temp_cap
            if overflow > 0:
                for k in sorted(model_temp, key=lambda k: (model_temp[k], k)
                                )[:overflow]:
                    del model_temp[k]
            assert removed == len(expired) + max(overflow, 0)

        assert set(smi.temp) == set(model_temp)
        assert set(smi.perm) == model_perm
        assert not (set(smi.temp) & set(smi.perm))
    return counts


def test_seeded_sequence_short():
    counts = run_storage_sequence(seed=2024, steps=1_000)
    assert counts["register"] > 0 and counts["archive"] > 0
    assert counts["rejected"] > 0    # the perm guard actually fired


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       steps=st.integers(min_value=20, max_value=300))
def test_sequence_property(seed, steps):
    run_storage_sequence(seed=seed, steps=steps)
