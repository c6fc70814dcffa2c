"""Validator-side consensus: hash-only vs full-evidence paths, window
binding, and commit certificate checks."""

from __future__ import annotations


import pytest

from conftest import (certify, certify_entry, commit_window, default_quorum,
                      impostor_identity, make_batch, make_booth, make_pool,
                      rekeyed_registry)
from vguard.consensus import (ConsensusCoordinator, ConsensusRound,
                              ValidatorConsensus)
from vguard.crypto import (SIG_LEN, AggregateSignature, aggregate,
                           make_partial, verify_partial)
from vguard.errors import RejectReason
from vguard.gossip import GossipAgent
from vguard.ledger import LogEntry, commit_cert_digest, order_cert_digest
from vguard.messages import (CommitMsg, CommitReply, GossipAck, PreCommitSeen,
                             PreCommitUnseen)
from test_ordering import FakeMmu, make_ctx, pivot_posing_booth, rejects

DELTA = 100_000


@pytest.fixture
def world():
    pool = make_pool([1, 2, 3, 4, 5, 6], seed=31, proposer_id=1, pivot_id=2)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    return pool, booth


def proposer_partial(pool, booth, ts, tx_hash):
    payload = commit_cert_digest(ts, tx_hash, booth.booth_hash)
    return make_partial(pool.keys[booth.proposer_id], payload)


def seen_msg(pool, booth, tx, first_id, last_id, ts=0, **over):
    fields = dict(instance_id=1, sender=booth.proposer_id,
                  window_start_us=ts, window_len_us=DELTA,
                  tx_hash=tx.tx_hash, first_id=first_id, last_id=last_id,
                  booth=booth, booth_hash=booth.booth_hash,
                  proposer_partial=proposer_partial(pool, booth, ts,
                                                    tx.tx_hash))
    fields.update(over)
    return PreCommitSeen(**fields)


def unseen_msg(pool, booth, tx, ts=0, **over):
    fields = dict(instance_id=1, sender=booth.proposer_id,
                  window_start_us=ts, window_len_us=DELTA,
                  tx_hash=tx.tx_hash, tx=tx, booth=booth,
                  booth_hash=booth.booth_hash,
                  proposer_partial=proposer_partial(pool, booth, ts,
                                                    tx.tx_hash))
    fields.update(over)
    return PreCommitUnseen(**fields)


def window_of(pool, booth, oids, ts=0):
    entries = [certify_entry(pool, booth, oid,
                             make_batch(pool, start_seq=10 * oid))
               for oid in oids]
    record, tx = commit_window(pool, booth, ts, DELTA, entries)
    return entries, record, tx


def seed_log(ctx, entries, booth) -> None:
    """Mimic the ordering phase: entries in the log, booth known locally."""
    for entry in entries:
        ctx.log.append(entry)
    ctx.ledger.note_booth(booth)


def only_reject(ctx, reason: str) -> None:
    assert rejects(ctx) == {reason: 1}


# -- hash-only path (validator sat in every ordering booth) ----------------


def test_seen_valid_binds_and_replies(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0, 1])
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 1))
    assert not rejects(ctx)
    (dst, reply, _), = sent
    assert dst == 1
    expected = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    assert verify_partial(reply.partial, pool.registry.verify_key(3), expected)
    assert engine.pending[0].tx_hash == tx.tx_hash
    assert 0 in engine.pending


def test_seen_with_log_gap_cannot_vouch(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0, 1, 2])
    ctx, sent = make_ctx(pool, node_id=3)
    seed_log(ctx, [entries[0], entries[2]], booth)  # id 1 missing locally
    ValidatorConsensus(ctx).handle_seen(1, seen_msg(pool, booth, tx, 0, 2))
    only_reject(ctx, "unknown_instance")
    assert sent == []


def test_seen_hash_mismatch_rejected(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0, 1])
    ctx, sent = make_ctx(pool, node_id=3)
    seed_log(ctx, entries, booth)
    msg = seen_msg(pool, booth, tx, 0, 1, tx_hash=b"\x99" * 32)
    ValidatorConsensus(ctx).handle_seen(1, msg)
    only_reject(ctx, "bad_hash")
    assert sent == []


def test_pre_commit_naming_a_pivot_the_registry_does_not_hold_is_refused(
        world):
    """Both pre-commit paths share the booth screen: a booth whose pivot
    the registry does not hold as one earns no countersignature."""
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0])
    posing = pivot_posing_booth(pool, booth)
    for msg in (seen_msg(pool, posing, tx, 0, 0),
                unseen_msg(pool, posing, tx)):
        ctx, sent = make_ctx(pool, node_id=3)
        seed_log(ctx, entries, booth)
        engine = ValidatorConsensus(ctx)
        (engine.handle_seen if isinstance(msg, PreCommitSeen)
         else engine.handle_unseen)(1, msg)
        only_reject(ctx, "not_pivot")
        assert sent == [] and not engine.pending


def test_window_shape_must_match_protocol(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    seed_log(ctx, entries, booth)
    engine = ValidatorConsensus(ctx)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0,
                                   window_len_us=DELTA // 2))
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0,
                                   window_start_us=50))  # not a multiple
    assert rejects(ctx) == {"malformed": 2}


def test_second_proposal_for_bound_window_rejected(world):
    pool, booth = world
    shared = [certify_entry(pool, booth, oid,
                            make_batch(pool, start_seq=10 * oid))
              for oid in (0, 1)]
    _, tx_a = commit_window(pool, booth, 0, DELTA, shared[:1])
    _, tx_b = commit_window(pool, booth, 0, DELTA, shared)
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
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0, 1])
    cbooth = consensus_booth(pool)
    ctx, sent = make_ctx(pool, node_id=5)
    engine = ValidatorConsensus(ctx)
    engine.handle_unseen(1, unseen_msg(pool, cbooth, tx))
    assert not rejects(ctx)
    assert len(sent) == 1
    # certified entries become local state, closing the gap for later windows
    assert ctx.log.get(0) is not None
    assert ctx.log.get(1) is not None
    assert ctx.log.get(0).cert == entries[0].cert
    assert booth.booth_hash in ctx.ledger.booth_table
    assert engine.pending[0].tx_hash == tx.tx_hash


def _one_signer_short(pool, booth, payload):
    """2f - 1 signatures under a bitmap that names the full 2f."""
    cert = certify(pool, booth, payload, default_quorum(booth))[1]
    return AggregateSignature(cert.sig_bytes[:-SIG_LEN])


def _one_signer_named(pool, booth, payload):
    """An honest certificate of 2f - 1 signers."""
    return certify(pool, booth, payload, default_quorum(booth)[:-1])[1]


def _unregistered_key(pool, booth, payload):
    """The last quorum member's signature made under a key the registry
    does not hold for it."""
    quorum = default_quorum(booth)
    rogue = impostor_identity(quorum[-1])[1]
    parts = [make_partial(pool.keys[m], payload) for m in quorum[:-1]]
    parts.append(make_partial(rogue, payload))
    return aggregate(parts, booth.member_ids,
                     rekeyed_registry(pool.registry, quorum[-1]))


def _without_pivot(pool, booth, payload):
    """2f honest signatures, none of them the pivot's."""
    quorum = tuple(m for m in booth.validators() if m != booth.pivot_id)
    return certify(pool, booth, payload, quorum)[1]


def _proposer_in_quorum(pool, booth, payload):
    """The proposer's own signature standing in for a validator's: with
    f = 1, the proposer and the pivot alone."""
    quorum = tuple(sorted((booth.proposer_id, booth.pivot_id)))
    return certify(pool, booth, payload, quorum)[1]


def _padding_bit(pool, booth, payload):
    """An honest certificate with a bitmap bit set past the last member:
    a second encoding of the same signers."""
    raw = certify(pool, booth, payload, default_quorum(booth))[1].sig_bytes
    assert len(booth.member_ids) < 8
    return AggregateSignature(bytes([raw[0] | 0x80]) + raw[1:])


def _shorter_than_bitmap(pool, booth, payload):
    """Fewer bytes than the bitmap of the booth's members takes."""
    return AggregateSignature(b"")


@pytest.mark.parametrize("fault, reason", [
    (_one_signer_short, RejectReason.BAD_CERT),
    (_one_signer_named, RejectReason.QUORUM_MISMATCH),
    (_unregistered_key, RejectReason.BAD_CERT),
    (_without_pivot, RejectReason.PIVOT_MISSING),
    (_proposer_in_quorum, RejectReason.FOREIGN_QUORUM_MEMBER),
    (_padding_bit, RejectReason.BAD_CERT),
    (_shorter_than_bitmap, RejectReason.BAD_CERT),
], ids=["2f-1_signers", "2f-1_named", "unregistered_key", "no_pivot",
        "proposer_in_quorum", "padding_bit", "short_bitmap"])
def test_unseen_refuses_a_foreign_entry_whose_certificate_is_faulty(
        world, fault, reason):
    """The certificate is a foreign entry's whole evidence: whatever
    `check_certified` finds wrong with it is the one reject, and nothing
    is adopted or countersigned."""
    pool, booth = world
    batch = make_batch(pool)
    payload = order_cert_digest(0, batch.batch_hash, booth.booth_hash)
    cert = fault(pool, booth, payload)
    assert booth.check_certified(cert, payload, pool.registry) is reason
    entry = LogEntry(ordering_id=0, batch=batch,
                     booth_hash=booth.booth_hash, cert=cert)
    _, tx = commit_window(pool, booth, 0, DELTA, [entry])
    ctx, sent = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, consensus_booth(pool), tx))
    only_reject(ctx, str(reason))
    assert sent == []
    assert ctx.log.get(0) is None    # nothing adopted from bad evidence


def test_unseen_tampered_batch_fails_certificate(world):
    pool, booth = world
    from vguard.ledger import DataBatch, DataEntry, Transaction, TxEntry
    entries, _, tx = window_of(pool, booth, [0])
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
    cbooth = consensus_booth(pool)
    ctx, sent = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, tampered_tx))
    only_reject(ctx, "bad_cert")
    assert sent == []


def test_unseen_empty_transaction_rejected(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0])
    from vguard.ledger import Transaction
    hollow = Transaction(window_start_us=0, window_len_us=DELTA,
                         entries=(), membership_links=())
    cbooth = consensus_booth(pool)
    ctx, _ = make_ctx(pool, node_id=5)
    ValidatorConsensus(ctx).handle_unseen(
        1, unseen_msg(pool, cbooth, hollow))
    only_reject(ctx, "malformed")


# -- commit delivery (C3/C4) -----------------------------------------------


def commit_msg(record, **over) -> CommitMsg:
    fields = dict(instance_id=1, sender=1,
                  window_start_us=record.consensus_id,
                  booth_hash=record.booth_hash, cert=record.cert,
                  tx_hash=record.tx_hash)
    fields.update(over)
    return CommitMsg(**fields)


def bound_engine(world, node_id=3, gossip=False):
    pool, booth = world
    entries, record, tx = window_of(pool, booth, [0, 1])
    ctx, sent = make_ctx(pool, node_id=node_id)
    if gossip:
        ctx.env.node_id = node_id
        ctx.gossip = GossipAgent(ctx.env, pool.registry, pool.keys[node_id],
                                 [], 2, None, lambda dst, msg: None)
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 1))
    assert len(sent) == 1
    return pool, booth, engine, ctx, record, tx


def test_commit_lands_window_in_ledger(world):
    # the pivot (node 2) takes gossip acks for the commit; node 3 does not
    for node_id, takes_acks in ((2, True), (3, False)):
        pool, booth, engine, ctx, record, tx = bound_engine(
            world, node_id, gossip=True)
        engine.handle_commit(1, commit_msg(record))
        assert not rejects(ctx)
        assert ctx.ledger.has_window(0)
        window = ctx.ledger.window(0)
        assert window.tx.tx_hash == tx.tx_hash
        assert window.record.cert == record.cert
        ack = GossipAck(instance_id=1, sender=5,
                        commit_hash=commit_msg(record).commit_hash())
        assert ctx.gossip.handle_ack(5, ack) is takes_acks
        # replayed delivery of the identical commit is a no-op
        engine.handle_commit(1, commit_msg(record))
        assert ctx.ledger.has_window(0)


def test_commit_without_bound_window(world):
    pool, booth = world
    _, record, _ = window_of(pool, booth, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    ValidatorConsensus(ctx).handle_commit(1, commit_msg(record))
    only_reject(ctx, "unknown_commit")


def test_commit_reject_matrix(world):
    pool, booth = world

    def fresh():
        return bound_engine(world)

    _, _, engine, ctx, record, tx = fresh()
    engine.handle_commit(1, commit_msg(record, tx_hash=b"\x01" * 32))
    only_reject(ctx, "reused_window")

    _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(1, commit_msg(record, booth_hash=b"\x02" * 32))
    only_reject(ctx, "unknown_booth")

    _, _, engine, ctx, record, _ = fresh()
    engine.handle_commit(4, commit_msg(record))
    only_reject(ctx, "malformed")

    for signers, reason in (((2, 3, 4), "quorum_mismatch"),
                            ((1, 2), "foreign_quorum_member"),
                            ((3, 4), "pivot_missing")):
        _, _, engine, ctx, record, _ = fresh()
        cert = certify(pool, booth, record.cert_digest(), signers)[1]
        engine.handle_commit(1, commit_msg(record, cert=cert))
        only_reject(ctx, reason)

    # certificate from a different window start
    _, _, engine, ctx, record, _ = fresh()
    _, other_record, _ = window_of(pool, booth, [0, 1], ts=DELTA)
    engine.handle_commit(1, commit_msg(record, cert=other_record.cert))
    only_reject(ctx, "bad_cert")

    for check_ctx in (ctx,):
        assert not check_ctx.ledger.has_window(0)


def test_commit_quorum_claim_must_match_cert_signers(world):
    pool, booth = world
    entries, _, tx = window_of(pool, booth, [0])
    ctx, _ = make_ctx(pool, node_id=3)
    engine = ValidatorConsensus(ctx)
    seed_log(ctx, entries, booth)
    engine.handle_seen(1, seen_msg(pool, booth, tx, 0, 0))

    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    _, cert = certify(pool, booth, payload, (2, 3))
    # the bitmap claims 2 and 4; the signatures are 2's and 3's
    claimed = AggregateSignature(bytes([0b1010]) + cert.sig_bytes[1:])
    msg = CommitMsg(instance_id=1, sender=1, window_start_us=0,
                    booth_hash=booth.booth_hash, cert=claimed,
                    tx_hash=tx.tx_hash)
    engine.handle_commit(1, msg)
    only_reject(ctx, "bad_cert")
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
    pool, booth = world
    _, _, tx = window_of(pool, booth, [1, 2])
    ctx, _ = make_ctx(pool, node_id=1)
    ctx.mmu = FakeMmu(booth)
    coord = ConsensusCoordinator(ctx)
    rnd = ConsensusRound(tx=tx, booth=booth,
                         cert_digest=commit_cert_digest(0, tx.tx_hash,
                                                        booth.booth_hash))
    coord.rounds[0] = rnd

    def reply(src, signer, ts):
        payload = commit_cert_digest(ts, tx.tx_hash, booth.booth_hash)
        partial = make_partial(pool.keys[signer], payload)
        return CommitReply(instance_id=1, sender=src, window_start_us=0,
                           partial=partial)

    for reason, msg in (("wrong_digest", reply(3, 3, DELTA)),
                        ("bad_sig", reply(3, 4, 0))):
        ctx.env.drops.clear()
        coord.handle_reply(3, msg)
        only_reject(ctx, reason)
    assert rnd.replies == {}
    ctx.env.drops.clear()
    coord.handle_reply(3, reply(3, 3, 0))
    assert not rejects(ctx)
    assert set(rnd.replies) == {3}
