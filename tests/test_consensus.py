"""Validator-side consensus: hash-only vs full-evidence paths, window
binding, and commit certificate checks."""

from __future__ import annotations

import pytest

from conftest import (certify_entry, commit_window, default_quorum,
                      make_batch, make_booth, make_pool)
from vguard.consensus import (ConsensusCoordinator, ConsensusRound,
                              ValidatorConsensus)
from vguard.crypto import make_partial, verify_partial
from vguard.ledger import commit_cert_digest
from vguard.messages import (CommitMsg, CommitReply, PreCommitSeen,
                             PreCommitUnseen)
from test_ordering import FakeMmu, make_ctx

DELTA = 100_000


@pytest.fixture
def world():
    pool = make_pool([1, 2, 3, 4, 5, 6], seed=31, proposer_id=1, pivot_id=2)
    booth, material = make_booth(pool, [1, 2, 3, 4], proposer_id=1,
                                 pivot_id=2)
    return pool, booth, material


def proposer_partial(pool, booth, ts, tx_hash):
    payload = commit_cert_digest(ts, tx_hash, booth.booth_hash)
    return make_partial(pool.keys[booth.proposer_id], payload,
                        pool.registry.booth_share(booth.booth_hash,
                                                  booth.proposer_id))


def seen_msg(pool, booth, tx, first_id, last_id, ts=0, **over):
    fields = dict(instance_id=1, sender=booth.proposer_id,
                  window_start_us=ts, window_len_us=DELTA,
                  tx_hash=tx.tx_hash, first_id=first_id, last_id=last_id,
                  booth=booth, booth_hash=booth.booth_hash,
                  proposer_partial=proposer_partial(pool, booth, ts,
                                                    tx.tx_hash))
    fields.update(over)
    return PreCommitSeen(**fields)


def unseen_msg(pool, booth, tx, entries, ts=0, **over):
    fields = dict(instance_id=1, sender=booth.proposer_id,
                  window_start_us=ts, window_len_us=DELTA,
                  tx_hash=tx.tx_hash, tx=tx, booth=booth,
                  booth_hash=booth.booth_hash,
                  reply_sets=tuple((e.ordering_id, e.reply_set)
                                   for e in entries),
                  proposer_partial=proposer_partial(pool, booth, ts,
                                                    tx.tx_hash))
    fields.update(over)
    return PreCommitUnseen(**fields)


def window_of(pool, booth, material, oids, ts=0):
    entries = [certify_entry(pool, booth, material, oid,
                             make_batch(pool, start_seq=10 * oid))
               for oid in oids]
    record, tx = commit_window(pool, booth, material, ts, DELTA, entries)
    return entries, record, tx


def seed_log(ctx, entries, booth) -> None:
    """Mimic the ordering phase: entries in the log, booth known locally."""
    for entry in entries:
        ctx.log.append(entry)
    ctx.booth_profiles[booth.booth_hash] = booth


def only_reject(ctx, reason: str) -> None:
    assert dict(ctx.counters) == {reason: 1}


# -- hash-only path (validator sat in every ordering booth) ----------------


def test_seen_valid_binds_and_replies(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0, 1])
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 1))
    assert not ctx.counters
    (dst, reply, _), = sent
    assert dst == 1
    expected = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    assert verify_partial(reply.partial, pool.registry.verify_key(3), expected)
    assert engine.binding[0] == tx.tx_hash
    assert 0 in engine.pending


def test_seen_with_log_gap_cannot_vouch(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0, 1, 2])
    ctx, sent = make_ctx(pool, node_id=3)
    seed_log(ctx, [entries[0], entries[2]], booth)  # id 1 missing locally
    ValidatorConsensus(ctx).handle_seen(1, seen_msg(pool, booth, tx, 0, 2))
    only_reject(ctx, "unknown_instance")
    assert sent == []


def test_seen_hash_mismatch_rejected(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0, 1])
    ctx, sent = make_ctx(pool, node_id=3)
    seed_log(ctx, entries, booth)
    msg = seen_msg(pool, booth, tx, 0, 1, tx_hash=b"\x99" * 32)
    ValidatorConsensus(ctx).handle_seen(1, msg)
    only_reject(ctx, "bad_hash")
    assert sent == []


def test_window_shape_must_match_protocol(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    seed_log(ctx, entries, booth)
    engine = ValidatorConsensus(ctx)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0,
                                   window_len_us=DELTA // 2))
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0,
                                   window_start_us=50))  # not a multiple
    assert ctx.counters == {"malformed": 2}


def test_second_proposal_for_bound_window_rejected(world):
    pool, booth, material = world
    shared = [certify_entry(pool, booth, material, oid,
                            make_batch(pool, start_seq=10 * oid))
              for oid in (0, 1)]
    _, tx_a = commit_window(pool, booth, material, 0, DELTA, shared[:1])
    _, tx_b = commit_window(pool, booth, material, 0, DELTA, shared)
    assert tx_a.tx_hash != tx_b.tx_hash
    ctx, sent = make_ctx(pool, node_id=3)
    seed_log(ctx, shared, booth)
    engine = ValidatorConsensus(ctx)
    engine.handle_seen(1, seen_msg(pool, booth, tx_a, 0, 0))
    assert len(sent) == 1
    engine.handle_seen(1, seen_msg(pool, booth, tx_b, 0, 1))
    only_reject(ctx, "reused_window")
    assert len(sent) == 1            # no second signature for the same slot


# -- full-evidence path (validator outside the ordering booth) -------------


def consensus_booth(pool):
    """A later booth containing node 5, which never ordered anything."""
    return make_booth(pool, [1, 2, 5, 6], proposer_id=1, pivot_id=2)


def test_unseen_verifies_adopts_and_replies(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0, 1])
    cbooth, _ = consensus_booth(pool)
    ctx, sent = make_ctx(pool, node_id=5)
    engine = ValidatorConsensus(ctx)
    engine.handle_unseen(1, unseen_msg(pool, cbooth, tx, entries))
    assert not ctx.counters
    assert len(sent) == 1
    # certified entries become local state, closing the gap for later windows
    assert ctx.log.get(0) is not None
    assert ctx.log.get(1) is not None
    assert ctx.log.get(0).quorum == entries[0].quorum
    assert booth.booth_hash in ctx.ledger.booth_table
    assert engine.binding[0] == tx.tx_hash


def test_unseen_without_enough_anchored_replies(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0])
    cbooth, _ = consensus_booth(pool)
    need = 2 * booth.fault_budget + 1
    starved = tuple((e.ordering_id, e.reply_set[:need - 1]) for e in entries)
    ctx, sent = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, tx, entries, reply_sets=starved))
    only_reject(ctx, "insufficient_replies")
    assert sent == []
    assert ctx.log.get(0) is None    # nothing adopted from bad evidence


def test_unseen_tampered_batch_fails_certificate(world):
    pool, booth, material = world
    from vguard.ledger import DataBatch, DataEntry, Transaction, TxEntry
    entries, _, tx = window_of(pool, booth, material, [0])
    entry = entries[0]
    first = entry.batch.entries[0]
    flipped = DataBatch(entries=(
        DataEntry(first.origin_seq,
                  bytes([first.payload[0] ^ 0xFF]) + first.payload[1:]),
        *entry.batch.entries[1:]))
    tampered_tx = Transaction(
        window_start_us=tx.window_start_us, window_len_us=tx.window_len_us,
        entries=(TxEntry(0, flipped, entry.cert),),
        membership_links=tx.membership_links)
    cbooth, _ = consensus_booth(pool)
    ctx, sent = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, tampered_tx, entries))
    only_reject(ctx, "bad_cert")
    assert sent == []


def test_unseen_link_without_pivot_rejected(world):
    pool, booth, material = world
    pivotless = [certify_entry(pool, booth, material, 0, make_batch(pool),
                               quorum=(3, 4))]
    _, tx = commit_window(pool, booth, material, 0, DELTA, pivotless)
    cbooth, _ = consensus_booth(pool)
    ctx, sent = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, tx, pivotless))
    only_reject(ctx, "pivot_missing")
    assert sent == []


def test_unseen_empty_transaction_rejected(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0])
    from vguard.ledger import Transaction
    hollow = Transaction(window_start_us=0, window_len_us=DELTA,
                         entries=(), membership_links=())
    cbooth, _ = consensus_booth(pool)
    ctx, _ = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, hollow, entries))
    only_reject(ctx, "malformed")


# -- commit delivery (C3/C4) -----------------------------------------------


def commit_msg(record, **over) -> CommitMsg:
    fields = dict(instance_id=1, sender=1,
                  window_start_us=record.consensus_id, quorum=record.quorum,
                  booth_hash=record.booth_hash, cert=record.cert,
                  tx_hash=record.tx_hash)
    fields.update(over)
    return CommitMsg(**fields)


def bound_engine(world, hooked=None):
    pool, booth, material = world
    entries, record, tx = window_of(pool, booth, material, [0, 1])
    ctx, sent = make_ctx(pool, node_id=3)
    ctx.committed_hook = hooked
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 1))
    assert len(sent) == 1
    return pool, booth, material, engine, ctx, record, tx


def test_commit_lands_window_in_ledger(world):
    committed = []
    pool, booth, material, engine, ctx, record, tx = bound_engine(
        world, hooked=lambda msg, tx: committed.append((msg, tx)))
    engine.handle_commit(1, commit_msg(record))
    assert not ctx.counters
    assert ctx.ledger.has_window(0)
    window = ctx.ledger.window(0)
    assert window.tx.tx_hash == tx.tx_hash
    assert window.record.quorum == record.quorum
    assert committed and committed[0][1].tx_hash == tx.tx_hash
    # replayed delivery of the identical commit is a no-op
    engine.handle_commit(1, commit_msg(record))
    assert ctx.ledger.has_window(0)


def test_commit_without_bound_window(world):
    pool, booth, material = world
    _, record, _ = window_of(pool, booth, material, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    ValidatorConsensus(ctx).handle_commit(1, commit_msg(record))
    only_reject(ctx, "unknown_commit")


def test_commit_reject_matrix(world):
    pool, booth, material = world

    def fresh():
        return bound_engine(world)

    _, _, _, engine, ctx, record, tx = fresh()
    engine.handle_commit(1, commit_msg(record, tx_hash=b"\x01" * 32))
    only_reject(ctx, "reused_window")

    _, _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(1, commit_msg(record, booth_hash=b"\x02" * 32))
    only_reject(ctx, "unknown_booth")

    _, _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(4, commit_msg(record))
    only_reject(ctx, "malformed")

    _, _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(1, commit_msg(record, quorum=(2, 3, 4)))
    only_reject(ctx, "quorum_mismatch")

    _, _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(1, commit_msg(record, quorum=(2, 99)))
    only_reject(ctx, "foreign_quorum_member")

    _, _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(1, commit_msg(record, quorum=(3, 4)))
    only_reject(ctx, "pivot_missing")

    # certificate from a different window start
    _, _, _, engine, ctx, record, _ = fresh()
    _, other_record, _ = window_of(pool, booth, material, [0, 1], ts=DELTA)
    engine.handle_commit(1, commit_msg(record, cert=other_record.cert))
    only_reject(ctx, "bad_cert")

    for check_ctx in (ctx,):
        assert not check_ctx.ledger.has_window(0)


def test_commit_quorum_claim_must_match_cert_signers(world):
    pool, booth, material = world
    entries, _, tx = window_of(pool, booth, material, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0))

    from vguard.crypto import aggregate
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    partials = [make_partial(pool.keys[m], payload,
                             pool.registry.booth_share(booth.booth_hash, m))
                for m in (2, 3)]
    cert = aggregate(partials, material)
    msg = CommitMsg(instance_id=1, sender=1, window_start_us=0,
                    quorum=(2, 4), booth_hash=booth.booth_hash, cert=cert,
                    tx_hash=tx.tx_hash)
    engine.handle_commit(1, msg)
    only_reject(ctx, "quorum_mismatch")
    assert not ctx.ledger.has_window(0)


def test_pre_commit_is_built_once_per_attempt(monkeypatch):
    """Every recipient of one pre-commit variant in one attempt gets the
    same message object, so its wire bytes are packed once."""
    from vguard.harness import RunSpec, run
    from vguard.netsim import SimConfig
    from vguard.node import NodeRuntime

    sent: dict[bytes, list] = {}
    send_msg = NodeRuntime.send_msg

    def spy(self, dst, msg, category, instance_key):
        if isinstance(msg, (PreCommitSeen, PreCommitUnseen)):
            sent.setdefault(msg.encode(), []).append(msg)
        send_msg(self, dst, msg, category, instance_key)

    monkeypatch.setattr(NodeRuntime, "send_msg", spy)
    run(RunSpec(booth_size=4, pool=8, lambda0=2, duration_ms=300.0,
                grace_ms=400.0, rate_per_s=150.0, seed=23, strict_audit=False,
                sim=SimConfig(seed=0, drop_rate=0.05, dup_rate=0.02)))
    shared = [msgs for msgs in sent.values() if len(msgs) > 1]
    assert any(isinstance(msgs[0], PreCommitUnseen) for msgs in shared)
    assert all(m is msgs[0] for msgs in sent.values() for m in msgs)


# -- proposer side ------------------------------------------------------------

def test_reply_endorsing_another_digest_is_wrong_digest_not_bad_sig(world):
    """A partial over another window's digest is a different claim, not a
    forged signature; a partial whose signer is not the sender is bad_sig."""
    pool, booth, material = world
    _, _, tx = window_of(pool, booth, material, [1, 2])
    ctx, _ = make_ctx(pool, node_id=1)
    ctx.mmu = FakeMmu(booth)
    coord = ConsensusCoordinator(ctx)
    own = proposer_partial(pool, booth, 0, tx.tx_hash)
    rnd = ConsensusRound(window_start_us=0, tx=tx, booth=booth, attempt=0,
                         own_partial=own, demoted=frozenset())
    coord.rounds[0] = rnd

    def reply(src, signer, ts):
        payload = commit_cert_digest(ts, tx.tx_hash, booth.booth_hash)
        partial = make_partial(
            pool.keys[signer], payload,
            pool.registry.booth_share(booth.booth_hash, signer))
        return CommitReply(instance_id=1, sender=src, window_start_us=0,
                           partial=partial)

    for reason, msg in (("wrong_digest", reply(3, 3, DELTA)),
                        ("bad_sig", reply(3, 4, 0))):
        ctx.counters.clear()
        coord.handle_reply(3, msg)
        only_reject(ctx, reason)
    assert rnd.replies == {}
    ctx.counters.clear()
    coord.handle_reply(3, reply(3, 3, 0))
    assert not ctx.counters
    assert set(rnd.replies) == {3}
