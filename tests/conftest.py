"""Shared builders for protocol structures.

These construct booths, certified log entries, and committed windows by
following the signing contracts directly, independent of the engine code,
so engine outputs can be checked against independently built expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from vguard import crypto
from vguard.booths import BoothProfile, build_profile
from vguard.crypto import (
    Identity,
    KeyService,
    Role,
    SigningKey,
    aggregate,
    make_identity,
    make_partial,
)
from vguard.ledger import (
    CommitRecord,
    DataBatch,
    DataEntry,
    LogEntry,
    MembershipLink,
    Transaction,
    TxEntry,
    commit_cert_digest,
    order_cert_digest,
    prune_memberships,
)


@dataclass
class Pool:
    """A registered node population with signing keys."""

    registry: KeyService
    keys: dict[int, SigningKey]
    rng: np.random.Generator
    identities: dict[int, Identity] = field(default_factory=dict)

    def identity(self, node_id: int) -> Identity:
        return self.identities[node_id]


def make_pool(node_ids, seed: int = 7, pivot_id: int | None = None,
              proposer_id: int | None = None) -> Pool:
    node_ids = list(node_ids)
    proposer_id = node_ids[0] if proposer_id is None else proposer_id
    pivot_id = node_ids[1] if pivot_id is None else pivot_id
    rng = np.random.Generator(np.random.PCG64(seed))
    registry = KeyService()
    keys: dict[int, SigningKey] = {}
    identities: dict[int, Identity] = {}
    for node_id in node_ids:
        if node_id == proposer_id:
            role = Role.PROPOSER
        elif node_id == pivot_id:
            role = Role.PIVOT
        else:
            role = Role.VEHICLE
        ident, key = make_identity(node_id, role, rng.bytes(32))
        registry.register(ident)
        keys[node_id] = key
        identities[node_id] = ident
    return Pool(registry=registry, keys=keys, rng=rng, identities=identities)


def impostor_identity(node_id: int) -> tuple[Identity, SigningKey]:
    """Another identity (and its key) under `node_id`."""
    rng = np.random.Generator(np.random.PCG64(77))
    return make_identity(node_id, Role.VEHICLE, rng.bytes(32))


class CountingMeter:
    """A cost meter that records each verify charge."""

    def __init__(self):
        self.verifies = []

    def verify(self, count):
        self.verifies.append(count)


def rekeyed_registry(registry: KeyService, node_id: int) -> KeyService:
    """A copy of `registry` that holds another key for `node_id`."""
    out = KeyService()
    for ident in registry.identities.values():
        out.register(impostor_identity(node_id)[0]
                     if ident.node_id == node_id else ident)
    return out


def make_booth(pool: Pool, member_ids, proposer_id: int, pivot_id: int,
               created_at_us: int = 0) -> BoothProfile:
    member_ids = sorted(member_ids)
    return build_profile(
        members=[pool.identity(i) for i in member_ids],
        proposer_id=proposer_id, pivot_id=pivot_id,
        created_at_us=created_at_us,
    )


def fresh_profile(booth: BoothProfile) -> BoothProfile:
    """An equal profile that has neither packed nor hashed itself yet."""
    return BoothProfile(members=booth.members, proposer_id=booth.proposer_id,
                        pivot_id=booth.pivot_id,
                        created_at_us=booth.created_at_us)


def make_batch(pool: Pool, size: int = 3, payload_len: int = 16,
               start_seq: int = 0) -> DataBatch:
    entries = tuple(
        DataEntry(start_seq + i, pool.rng.bytes(payload_len)) for i in range(size))
    return DataBatch(entries=entries)


def default_quorum(booth: BoothProfile) -> tuple[int, ...]:
    """Pivot plus the lowest-id vehicles, 2f signers total."""
    need = 2 * booth.fault_budget
    quorum = [booth.pivot_id]
    for member in booth.member_ids:
        if len(quorum) == need:
            break
        if member not in (booth.proposer_id, booth.pivot_id):
            quorum.append(member)
    return tuple(sorted(quorum))


def certify(pool: Pool, booth: BoothProfile, payload: bytes,
            quorum: tuple[int, ...]):
    """The quorum's identity partials over `payload`, and their certificate."""
    partials = [make_partial(pool.keys[m], payload) for m in quorum]
    return partials, aggregate(partials, booth.member_ids, pool.registry)


def certify_entry(pool: Pool, booth: BoothProfile,
                  ordering_id: int, batch: DataBatch,
                  quorum: tuple[int, ...] | None = None,
                  appended_at_us: int = 0) -> LogEntry:
    quorum = default_quorum(booth) if quorum is None else quorum
    payload = order_cert_digest(ordering_id, batch.batch_hash, booth.booth_hash)
    _, cert = certify(pool, booth, payload, quorum)
    return LogEntry(
        ordering_id=ordering_id, batch=batch, booth_hash=booth.booth_hash, cert=cert, appended_at_us=appended_at_us,
    )


def commit_window(pool: Pool, booth: BoothProfile, window_start_us: int,
                  window_len_us: int, entries: list[LogEntry],
                  booth_lookup=None) -> tuple[CommitRecord, Transaction]:
    lookup = booth_lookup or (lambda h: booth)
    links = prune_memberships(entries, lookup)
    tx = Transaction(
        window_start_us=window_start_us, window_len_us=window_len_us,
        entries=tuple(TxEntry(e.ordering_id, e.batch, e.cert) for e in entries),
        membership_links=tuple(links),
    )
    quorum = default_quorum(booth)
    payload = commit_cert_digest(window_start_us, tx.tx_hash, booth.booth_hash)
    record = CommitRecord(
        consensus_id=window_start_us, booth_hash=booth.booth_hash,
        cert=certify(pool, booth, payload, quorum)[1],
        tx_hash=tx.tx_hash, committed_at_us=window_start_us + window_len_us,
    )
    return record, tx


@pytest.fixture
def pool4() -> Pool:
    return make_pool([1, 2, 3, 4])


@pytest.fixture
def booth4(pool4) -> BoothProfile:
    return make_booth(pool4, [1, 2, 3, 4], proposer_id=1, pivot_id=2)


@pytest.fixture
def real_checks(monkeypatch):
    """Counts the real Ed25519 verifications `verify_raw` makes."""
    real = crypto.Ed25519PublicKey
    calls = []

    class CountingKey:
        def __init__(self, key):
            self._key = key

        @classmethod
        def from_public_bytes(cls, raw):
            return cls(real.from_public_bytes(raw))

        def verify(self, sig, data):
            calls.append((sig, data))
            return self._key.verify(sig, data)

    monkeypatch.setattr(crypto, "Ed25519PublicKey", CountingKey)
    crypto.clear_caches()
    yield calls
    crypto.clear_caches()


@pytest.fixture
def cryptography_signs(monkeypatch):
    """Counts the signatures made through `cryptography`'s
    `Ed25519PrivateKey.sign` by keys built after the fixture starts."""
    real = crypto.Ed25519PrivateKey
    calls = []

    class CountingKey:
        def __init__(self, key):
            self._key = key

        @classmethod
        def from_private_bytes(cls, seed):
            return cls(real.from_private_bytes(seed))

        def public_key(self):
            return self._key.public_key()

        def sign(self, data):
            calls.append(data)
            return self._key.sign(data)

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", CountingKey)
    return calls
