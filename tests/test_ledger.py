"""Total order log, membership pruning, transactions, and chain audits."""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vguard.booths import BoothProfile
from vguard.codec import Reader, digest
from vguard.crypto import AggregateSignature, Identity, Role
from vguard.errors import DuplicateOrderingId, RejectReason, WindowError
from vguard.harness import RunSpec, run, write_artifacts
from vguard.ledger import (
    CommitRecord,
    DataBatch,
    DataEntry,
    Ledger,
    LogEntry,
    MembershipLink,
    TotalOrderLog,
    Transaction,
    TxEntry,
    expand_memberships,
    prune_memberships,
    tx_hash_over,
    _from_json,
    _to_json,
    verify_chain,
)

from conftest import (
    certify,
    certify_entry,
    commit_window,
    default_quorum,
    make_batch,
    make_booth,
    make_pool,
)
from test_golden import SPECS as GOLDEN_SPECS
from test_messages import _U64, _values

DELTA_US = 100_000   # 100 ms windows


def test_batch_hash_depends_on_content_and_order():
    a = DataBatch((DataEntry(0, b"x"), DataEntry(1, b"y")))
    b = DataBatch((DataEntry(0, b"x"), DataEntry(1, b"y")))
    c = DataBatch((DataEntry(1, b"y"), DataEntry(0, b"x")))
    assert a.batch_hash == b.batch_hash
    assert a.batch_hash != c.batch_hash


def test_log_append_and_conflict(pool4, booth4):
    booth = booth4
    log = TotalOrderLog()
    entry = certify_entry(pool4, booth, 1, make_batch(pool4), appended_at_us=10)
    assert log.append(entry)
    assert not log.append(entry)            # identical replay is a no-op
    other = certify_entry(pool4, booth, 1, make_batch(pool4, start_seq=50))
    with pytest.raises(DuplicateOrderingId):
        log.append(other)
    assert log.get(1).batch_hash == entry.batch_hash


def test_window_slice_half_open(pool4, booth4):
    # An entry appended exactly on a boundary belongs to the next window.
    booth = booth4
    log = TotalOrderLog()
    at_99 = certify_entry(pool4, booth, 1, make_batch(pool4),
                          appended_at_us=99_000)
    at_100 = certify_entry(pool4, booth, 2, make_batch(pool4, start_seq=10),
                           appended_at_us=100_000)
    log.append(at_99)
    log.append(at_100)
    assert [e.ordering_id for e in log.window_slice(0, DELTA_US)] == [1]
    assert [e.ordering_id for e in log.window_slice(DELTA_US, 2 * DELTA_US)] == [2]
    with pytest.raises(WindowError):
        log.window_slice(DELTA_US, DELTA_US)


def test_id_range_requires_contiguity(pool4, booth4):
    booth = booth4
    log = TotalOrderLog()
    for i in (1, 2, 4):
        log.append(certify_entry(pool4, booth, i, make_batch(pool4, start_seq=i * 10)))
    assert [e.ordering_id for e in log.id_range(1, 2)] == [1, 2]
    assert log.id_range(1, 4) is None       # 3 is missing


def _entries_with_memberships(pool, spec):
    """spec: list of (ordering_id, booth, quorum)."""
    out = []
    for ordering_id, booth, quorum in spec:
        out.append(certify_entry(pool, booth, ordering_id,
                                 make_batch(pool, start_seq=ordering_id * 10),
                                 quorum=quorum))
    return out


def _oracle_prune(entries):
    """Independent run-length oracle over booth hashes, requiring
    consecutive ordering ids."""
    runs = []
    for entry in entries:
        key = entry.booth_hash
        if runs and runs[-1][0] == key and runs[-1][2] + 1 == entry.ordering_id:
            runs[-1][2] = entry.ordering_id
        else:
            runs.append([key, entry.ordering_id, entry.ordering_id])
    return [(key, first, last) for key, first, last in runs]


def test_prune_collapses_runs_and_expand_inverts(pool4):
    booth_a = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=1)
    booth_b = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=2)
    q_a = default_quorum(booth_a)
    q_alt = tuple(sorted((booth_a.pivot_id, 4)))
    spec = [
        (1, booth_a, q_a),
        (2, booth_a, q_a),
        (3, booth_a, q_alt),      # signers change, booth does not
        (4, booth_b, default_quorum(booth_b)),
        (5, booth_b, default_quorum(booth_b)),
    ]
    entries = _entries_with_memberships(pool4, spec)
    table = {booth_a.booth_hash: booth_a, booth_b.booth_hash: booth_b}
    links = prune_memberships(entries, table.__getitem__)
    oracle = _oracle_prune(entries)
    assert [(l.booth.booth_hash, l.first_id, l.last_id) for l in links] == oracle
    assert len(links) == 2
    expanded = expand_memberships(links)
    for entry in entries:
        assert expanded[entry.ordering_id].booth_hash == entry.booth_hash


def test_prune_does_not_merge_across_id_gaps(pool4, booth4):
    booth = booth4
    q = default_quorum(booth)
    entries = _entries_with_memberships(
        pool4, [(1, booth, q), (3, booth, q)])
    links = prune_memberships(entries, lambda h: booth)
    assert [(l.first_id, l.last_id) for l in links] == [(1, 1), (3, 3)]


@given(st.lists(st.integers(0, 2), min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_prune_expand_roundtrip_property(runs):
    # Abstract the crypto away: pruning only looks at (booth, id) so
    # synthetic hashes exercise the run-length logic itself.
    class Stub:
        def __init__(self, ordering_id, booth_hash):
            self.ordering_id = ordering_id
            self.booth_hash = booth_hash

    booths = {i: bytes([i]) * 32 for i in range(3)}
    entries = []
    next_id = 1
    for booth_idx in runs:
        entries.append(Stub(next_id, booths[booth_idx]))
        next_id += 1

    class FakeBooth:
        def __init__(self, h):
            self.booth_hash = h

    links = prune_memberships(entries, FakeBooth)
    # every entry covered exactly once, in order, with matching metadata
    covered = []
    for link in links:
        assert link.first_id <= link.last_id
        for i in range(link.first_id, link.last_id + 1):
            covered.append((i, link.booth.booth_hash))
    assert [c[0] for c in covered] == [e.ordering_id for e in entries]
    for (i, booth_hash), entry in zip(covered, entries):
        assert booth_hash == entry.booth_hash
    # minimality: adjacent links never share a booth contiguously
    for a, b in zip(links, links[1:]):
        assert not (a.booth.booth_hash == b.booth.booth_hash
                    and a.last_id + 1 == b.first_id)


def test_tx_hash_covers_data_not_membership(pool4):
    # Two booths order identical data: transaction hashes must agree, the
    # membership links may differ. This is the cross-booth base property.
    booth_a = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=1)
    booth_b = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=2)
    batch = make_batch(pool4)
    entry_a = certify_entry(pool4, booth_a, 1, batch)
    entry_b = certify_entry(pool4, booth_b, 1, batch)
    _, tx_a = commit_window(pool4, booth_a, 0, DELTA_US, [entry_a])
    _, tx_b = commit_window(pool4, booth_b, 0, DELTA_US, [entry_b])
    assert tx_a.tx_hash == tx_b.tx_hash
    assert tx_a.membership_links[0].booth.booth_hash != \
        tx_b.membership_links[0].booth.booth_hash
    expected = tx_hash_over(0, DELTA_US, [(1, batch.batch_hash)])
    assert tx_a.tx_hash == expected


def test_transaction_wire_roundtrip(pool4, booth4):
    booth = booth4
    entries = [certify_entry(pool4, booth, i, make_batch(pool4, start_seq=i * 10))
               for i in (1, 2)]
    _, tx = commit_window(pool4, booth, 0, DELTA_US, entries)
    r = Reader(tx.packed)
    decoded = Transaction.read_from(r)
    r.expect_done()
    assert decoded.tx_hash == tx.tx_hash
    assert decoded == tx


def _build_ledger(pool, booth, n_windows=3, entries_per_window=2):
    ledger = Ledger(booth.proposer_id, DELTA_US)
    ledger.note_booth(booth)
    next_id = 1
    for w in range(n_windows):
        entries = []
        for _ in range(entries_per_window):
            entries.append(certify_entry(
                pool, booth, next_id,
                make_batch(pool, start_seq=next_id * 10),
                appended_at_us=w * DELTA_US + 10))
            next_id += 1
        record, tx = commit_window(pool, booth, w * DELTA_US, DELTA_US, entries)
        ledger.append_commit(record, tx)
    return ledger


def test_verify_chain_accepts_honest_ledger(pool4, booth4):
    booth = booth4
    ledger = _build_ledger(pool4, booth)
    check = verify_chain(ledger, pool4.registry, strict=True,
                         horizon_us=3 * DELTA_US)
    assert check.ok, check.violations
    assert check.windows_checked == 3
    assert check.entries_checked == 6


def test_verify_chain_localizes_tampering(pool4, booth4):
    booth = booth4
    ledger = _build_ledger(pool4, booth)
    win = ledger.window(DELTA_US)
    tampered_entry = TxEntry(
        ordering_id=win.tx.entries[0].ordering_id,
        batch=DataBatch((DataEntry(999, b"evil"),)),
        cert=win.tx.entries[0].cert,
    )
    win.tx = Transaction(
        window_start_us=win.tx.window_start_us,
        window_len_us=win.tx.window_len_us,
        entries=(tampered_entry,) + win.tx.entries[1:],
        membership_links=win.tx.membership_links,
    )
    check = verify_chain(ledger, pool4.registry)
    assert not check.ok
    assert any("hash" in v or "certificate" in v for v in check.violations)
    assert check.first_violation is not None


def test_verify_chain_rejects_pivotless_quorum(pool4, booth4):
    booth = booth4
    ledger = Ledger(1, DELTA_US)
    ledger.note_booth(booth)
    batch = make_batch(pool4)
    # quorum of the two vehicles, excluding the pivot
    entry = certify_entry(pool4, booth, 1, batch, quorum=(3, 4))
    record, tx = commit_window(pool4, booth, 0, DELTA_US, [entry])
    ledger.append_commit(record, tx)
    check = verify_chain(ledger, pool4.registry)
    assert not check.ok
    assert any("pivot" in v for v in check.violations)


def test_verify_chain_rejects_a_quorum_that_names_the_proposer(pool4,
                                                              booth4):
    """A certificate the proposer signed with the pivot alone is well
    signed, yet no validator besides the pivot checked the proposer's
    signature, so neither the ordering nor the commit certificate counts."""
    booth = booth4
    ledger = Ledger(1, DELTA_US)
    ledger.note_booth(booth)
    quorum = (booth.proposer_id, booth.pivot_id)
    entry = certify_entry(pool4, booth, 1, make_batch(pool4), quorum=quorum)
    record, tx = commit_window(pool4, booth, 0, DELTA_US, [entry])
    payload = record.cert_digest()
    record = replace(record, cert=certify(pool4, booth, payload, quorum)[1])
    ledger.append_commit(record, tx)
    check = verify_chain(ledger, pool4.registry)
    assert check.violations == [
        "window 0: commit certificate rejected: foreign_quorum_member",
        "entry 1: ordering certificate rejected: foreign_quorum_member"]


def test_verify_chain_rejects_a_pivot_the_registry_does_not_hold(pool4,
                                                                booth4):
    """A booth naming vehicle 4 its pivot: every certificate is well signed
    by a quorum holding that 'pivot', yet none counts, because the registry
    holds node 2 as the pivot."""
    booth = make_booth(pool4, [1, 2, 3, 4], proposer_id=1, pivot_id=4)
    ledger = Ledger(1, DELTA_US)
    ledger.note_booth(booth)
    entry = certify_entry(pool4, booth, 1, make_batch(pool4), quorum=(3, 4))
    record, tx = commit_window(pool4, booth, 0, DELTA_US, [entry])
    ledger.append_commit(record, tx)
    assert booth.check_certified(record.cert, record.cert_digest(),
                                 pool4.registry) \
        is RejectReason.NOT_PIVOT
    check = verify_chain(ledger, pool4.registry)
    assert check.violations == [
        "window 0: commit certificate rejected: not_pivot",
        "entry 1: ordering certificate rejected: not_pivot"]


def test_audit_rejects_quorums_that_repeat_a_member(monkeypatch):
    """A certificate carrying one member's signature twice holds 2f
    signatures but fewer than 2f signers. Every validator drops it; the
    audit must too, for the commit certificate and for an entry's ordering
    certificate."""
    # the clean_n4 golden run; node 1 is the pivot of instance 1
    result = run(RunSpec(booth_size=4, duration_ms=300.0, grace_ms=300.0,
                         rate_per_s=100.0, seed=21))
    ledger = result.ledger(1, 1)
    registry = result.runtimes[1].registry
    assert verify_chain(ledger, registry).ok
    ts = ledger.committed_windows()[0]
    win = ledger.window(ts)

    def repeated(cert):
        """The bitmap's lowest signer alone, its signature twice."""
        raw = cert.sig_bytes            # a 1-byte bitmap for 4 members
        return AggregateSignature(bytes([raw[0] & -raw[0]]) + raw[1:65] * 2)

    monkeypatch.setattr(win, "record", replace(
        win.record, cert=repeated(win.record.cert)))
    check = verify_chain(ledger, registry)
    assert check.violations == [
        f"window {ts}: commit certificate rejected: bad_cert"]
    monkeypatch.undo()

    first, *rest = win.tx.entries
    forged = replace(first, cert=repeated(first.cert))
    monkeypatch.setattr(win, "tx", replace(win.tx, entries=(forged, *rest)))
    check = verify_chain(ledger, registry)
    assert check.violations == [
        f"entry {first.ordering_id}: ordering certificate rejected: "
        f"bad_cert"]


def test_strict_mode_needs_tiling_and_continuity(pool4, booth4):
    booth = booth4
    ledger = Ledger(1, DELTA_US)
    ledger.note_booth(booth)
    e1 = certify_entry(pool4, booth, 1, make_batch(pool4), appended_at_us=10)
    r1, t1 = commit_window(pool4, booth, 0, DELTA_US, [e1])
    ledger.append_commit(r1, t1)
    # skip window 1 without covering it; commit id 3 in window 2 (id 2 missing)
    e3 = certify_entry(pool4, booth, 3,
                       make_batch(pool4, start_seq=30),
                       appended_at_us=2 * DELTA_US + 10)
    r3, t3 = commit_window(pool4, booth, 2 * DELTA_US, DELTA_US, [e3])
    ledger.append_commit(r3, t3)
    relaxed = verify_chain(ledger, pool4.registry, strict=False)
    assert relaxed.ok, relaxed.violations
    strict = verify_chain(ledger, pool4.registry, strict=True, horizon_us=3 * DELTA_US)
    assert not strict.ok
    assert any("skip" in v for v in strict.violations)
    assert any("coverage gap" in v for v in strict.violations)
    # covering the empty window and restoring continuity heals only coverage
    ledger.mark_covered(DELTA_US)
    still = verify_chain(ledger, pool4.registry, strict=True, horizon_us=3 * DELTA_US)
    assert any("skip" in v for v in still.violations)


def _ledger_with_ids(pool, booth, windows) -> Ledger:
    """One committed window per list of ordering ids, on consecutive slots."""
    ledger = Ledger(booth.proposer_id, DELTA_US)
    ledger.note_booth(booth)
    for w, ids in enumerate(windows):
        entries = [certify_entry(pool, booth, oid,
                                 make_batch(pool, start_seq=oid * 10),
                                 appended_at_us=w * DELTA_US + 10)
                   for oid in ids]
        record, tx = commit_window(pool, booth, w * DELTA_US,
                                   DELTA_US, entries)
        ledger.append_commit(record, tx)
    return ledger


def test_strict_mode_steps_over_retired_ids(pool4, booth4):
    booth = booth4
    # id 1 retired before the first window, id 3 between windows, id 6
    # inside the second window: every gap is one a timeout explains
    ledger = _ledger_with_ids(pool4, booth, [[2], [4, 5, 7]])
    horizon = 2 * DELTA_US
    bare = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon)
    assert any("skip" in v for v in bare.violations)
    assert any("gap inside" in v for v in bare.violations)
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={1, 3, 6})
    assert check.ok, check.violations


def test_strict_mode_rejects_gaps_no_retirement_explains(pool4, booth4):
    booth = booth4
    ledger = _ledger_with_ids(pool4, booth, [[1, 2], [4, 5, 8]])
    horizon = 2 * DELTA_US
    # 3 and 6 retired, 7 never was: only the gap at 7 must fail
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={3, 6})
    assert check.violations == [f"window {DELTA_US}: gap inside window entry ids"]
    # a retired id past the gap does not excuse a skip before it
    ledger = _ledger_with_ids(pool4, booth, [[1], [4]])
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={2, 5})
    assert check.violations == [f"window {DELTA_US}: ordering ids skip 2..3"]


def test_strict_mode_steps_over_given_up_windows_and_nothing_else(pool4,
                                                                  booth4):
    """A window the proposer gave up counts as covered and its entries'
    ids as explained; a gap neither it nor a retired id explains fails."""
    ledger = _ledger_with_ids(pool4, booth4, [[1, 2]])
    entries = [certify_entry(pool4, booth4, oid,
                             make_batch(pool4, start_seq=oid * 10),
                             appended_at_us=2 * DELTA_US + 10)
               for oid in (5, 6)]
    ledger.append_commit(*commit_window(pool4, booth4, 2 * DELTA_US,
                                        DELTA_US, entries))
    horizon = 3 * DELTA_US
    # window 1 held ids 3 and 4 and was given up
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={3, 4}, given_up={DELTA_US})
    assert check.ok, check.violations
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={3}, given_up={DELTA_US})
    assert check.violations == [f"window {2 * DELTA_US}: ordering ids skip 3..4"]
    check = verify_chain(ledger, pool4.registry, strict=True, horizon_us=horizon,
                         retired_ids={3, 4})
    assert check.violations == [f"coverage gap: windows [{DELTA_US}] "
                                "neither committed nor covered"]


def test_export_import_roundtrip(tmp_path, pool4, booth4):
    booth = booth4
    ledger = _build_ledger(pool4, booth)
    ledger.mark_covered(3 * DELTA_US)
    path = tmp_path / "ledger-1.jsonl"
    ledger.export_jsonl(path, pool4.identities.values())
    restored, registry = Ledger.import_jsonl(path)
    check = verify_chain(restored, registry, strict=True, horizon_us=4 * DELTA_US)
    assert check.ok, check.violations
    # re-export is byte-identical: the export is canonical
    path2 = tmp_path / "again.jsonl"
    restored.export_jsonl(path2, registry.identities.values())
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_every_golden_ledger_export_imports_as_it_was_written(name, tmp_path):
    """Each ledger export of a golden run imports to a ledger that audits
    clean against the imported registry and exports the same lines again;
    the same file with its meta line moved off the top is refused."""
    paths = [path for path in write_artifacts(run(GOLDEN_SPECS[name]), tmp_path)
             if path.name.startswith("ledger-")]
    assert paths
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        ledger, registry = Ledger.import_jsonl(path)
        check = verify_chain(ledger, registry)
        assert check.ok, (path.name, check.violations)
        assert ledger.export_lines(registry.identities.values()) == lines
        path.write_text("\n".join(lines[1:] + lines[:1]), encoding="utf-8")
        with pytest.raises(ValueError, match="must start with a meta line"):
            Ledger.import_jsonl(path)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([Identity, BoothProfile, CommitRecord, Transaction])
       .flatmap(lambda tp: st.tuples(st.just(tp), _values(tp))))
def test_json_rendering_round_trips(case):
    tp, value = case
    assert _from_json(tp, json.loads(json.dumps(_to_json(value)))) == value


# One of each exported line, with every key spelled out: a renamed field
# shows here by name, not only as a changed golden digest.
_PIVOT = Identity(2, Role.PIVOT, bytes(range(32)), "10.0.0.2")
_VEHICLE = Identity(3, Role.VEHICLE, bytes(range(32, 64)), "10.0.0.3")
_BOOTH = BoothProfile(proposer_id=3, pivot_id=2, created_at_us=5,
                      members=(_PIVOT, _VEHICLE))
_PIVOT_JSON = {"node_id": 2, "role": "pivot_validator",
               "verify_key": bytes(range(32)).hex(), "net_addr": "10.0.0.2"}
_BOOTH_JSON = {
    "proposer": 3, "pivot": 2, "created_at_us": 5,
    "members": [_PIVOT_JSON,
                {"node_id": 3, "role": "vehicle_validator",
                 "verify_key": bytes(range(32, 64)).hex(),
                 "net_addr": "10.0.0.3"}]}
EXPORTED_LINES = {
    "identity": {"kind": "identity", **_PIVOT_JSON},
    "booth": {"kind": "booth", "profile": _BOOTH_JSON},
    "commit": {
        "kind": "commit",
        "record": {"consensus_id": DELTA_US, "booth": "bbbb",
                   "cert": {"sig": "0102"}, "tx_hash": "cccc",
                   "committed_at_us": 9},
        "tx": {"window_start_us": DELTA_US, "window_len_us": DELTA_US,
               "entries": [{"ordering_id": 1, "batch": [[7, "ab"], [8, ""]],
                            "cert": {"sig": "03"}}],
               "links": [{"booth": _BOOTH_JSON, "first": 1, "last": 1}]}},
}


@pytest.mark.parametrize("kind", sorted(EXPORTED_LINES))
def test_export_line_layout(kind):
    ledger = Ledger(1, DELTA_US)
    tx = Transaction(
        window_start_us=DELTA_US, window_len_us=DELTA_US,
        entries=(TxEntry(1, DataBatch((DataEntry(7, b"\xab"), DataEntry(8, b""))),
                         AggregateSignature(b"\x03")),),
        membership_links=(MembershipLink(_BOOTH, 1, 1),))
    ledger.append_commit(CommitRecord(
        consensus_id=DELTA_US, booth_hash=b"\xbb\xbb",
        cert=AggregateSignature(b"\x01\x02"), tx_hash=b"\xcc\xcc",
        committed_at_us=9), tx)
    lines = [json.loads(line) for line in ledger.export_lines([_PIVOT])]
    assert [line for line in lines if line["kind"] == kind] == \
        [EXPORTED_LINES[kind]]


def test_ledger_commit_conflict_detected(pool4, booth4):
    booth = booth4
    ledger = Ledger(1, DELTA_US)
    ledger.note_booth(booth)
    e1 = certify_entry(pool4, booth, 1, make_batch(pool4), appended_at_us=5)
    r1, t1 = commit_window(pool4, booth, 0, DELTA_US, [e1])
    ledger.append_commit(r1, t1)
    ledger.append_commit(r1, t1)            # idempotent
    e2 = certify_entry(pool4, booth, 2, make_batch(pool4, start_seq=9),
                       appended_at_us=6)
    r2, t2 = commit_window(pool4, booth, 0, DELTA_US, [e2])
    with pytest.raises(DuplicateOrderingId):
        ledger.append_commit(r2, t2)


# -- the flat commit path against the code it replaced ------------------

def _pruned_by_replace(entries, booth_lookup):
    """The reference: extend the last link with one `replace` per entry."""
    links = []
    for entry in entries:
        if (links
                and links[-1].booth.booth_hash == entry.booth_hash
                and links[-1].last_id + 1 == entry.ordering_id):
            links[-1] = replace(links[-1], last_id=entry.ordering_id)
        else:
            links.append(MembershipLink(
                booth=booth_lookup(entry.booth_hash),
                first_id=entry.ordering_id,
                last_id=entry.ordering_id,
            ))
    return links


_BOOTHS = [replace(_BOOTH, created_at_us=k) for k in range(3)]


@st.composite
def _window_entries(draw) -> list:
    """Log entries with booth switches and id gaps (steps of 1, 2 and 9,
    and repeats), whose ids may end at 2**64 - 1."""
    steps = draw(st.lists(st.tuples(st.integers(0, 2),
                                    st.sampled_from([1, 1, 1, 2, 9, 0])),
                          max_size=30))
    top = 2**64 - 1 - sum(gap for _, gap in steps)
    ordering_id = draw(st.one_of(st.just(top), st.integers(0, top)))
    entries = []
    for booth, gap in steps:
        entries.append(LogEntry(ordering_id, DataBatch(),
                                _BOOTHS[booth].booth_hash,
                                AggregateSignature(b"")))
        ordering_id += gap
    return entries


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_window_entries())
def test_prune_memberships_equals_one_replace_per_entry(entries):
    table = {booth.booth_hash: booth for booth in _BOOTHS}
    seen, seen_by_reference = [], []
    got = prune_memberships(entries, lambda h: seen.append(h) or table[h])
    assert got == _pruned_by_replace(
        entries, lambda h: seen_by_reference.append(h) or table[h])
    assert seen == seen_by_reference            # once per run, in order


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_U64, _U64, st.lists(st.tuples(_U64, st.binary(max_size=40)),
                            max_size=30))
def test_tx_hash_over_equals_the_nested_digest(start, length, pairs):
    assert tx_hash_over(start, length, pairs) == digest(
        "tx", start, length, [[i, h] for i, h in pairs])
