"""Validator-side ordering checks, driven message by message.

Each rejection test starts from a provably valid message and changes one
thing, so a reject can only be attributed to the tampered field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from conftest import certify_entry, make_batch, make_booth, make_pool
from vguard.booths import build_profile
from vguard.crypto import AggregateSignature, Role, make_partial, verify_partial
from vguard.ledger import Ledger, TotalOrderLog, order_cert_digest
from vguard.messages import OrderMsg, OrderReply, PreOrder
from vguard.netsim import CostMeter, Timer
from vguard.node import InstanceContext, MetricSink, ProtocolConfig
from vguard.ordering import OrderingCoordinator, ValidatorOrdering


class FakeEnv:
    """Engine-facing clock, meter and tally with no scheduler behind them."""

    def __init__(self):
        self.t_us = 0
        self.meter = CostMeter()
        self.drops: Counter = Counter()
        self.events: Counter = Counter()

    def now_us(self) -> int:
        return self.t_us

    def after(self, delay_ms: float, fn) -> Timer:
        return Timer()                   # timers never fire here


class FakeMmu:
    """A fixed head booth for a coordinator; membership never changes."""

    def __init__(self, booth):
        self.booth = booth

    def on_booth_invalidated(self, fn) -> None:
        pass

    def on_booth_available(self, fn) -> None:
        pass

    def current_booth(self):
        return self.booth

    def latency_of(self, booth) -> float:
        return 1.0


def make_ctx(pool, node_id: int, instance_id: int = 1,
             delta_us: int = 100_000):
    sent = []
    ctx = InstanceContext(
        instance_id=instance_id, node_id=node_id, env=FakeEnv(),
        registry=pool.registry, key=pool.keys[node_id],
        config=ProtocolConfig(), delta_us=delta_us,
        send=lambda dst, msg: sent.append((dst, msg)),
        log=TotalOrderLog(), ledger=Ledger(node_id, delta_us),
        metrics=MetricSink())
    return ctx, sent


def rejects(ctx) -> dict[str, int]:
    """What the context's node dropped, by reason."""
    assert {node for node, _ in ctx.env.drops} <= {ctx.node_id}
    return {reason: n for (_, reason), n in ctx.env.drops.items()}


@pytest.fixture
def world():
    pool = make_pool([1, 2, 3, 4, 5], seed=23, proposer_id=1, pivot_id=2)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    return pool, booth


def pre_order(pool, booth, ordering_id: int, batch=None, **over) -> PreOrder:
    batch = make_batch(pool, size=2) if batch is None else batch
    payload = order_cert_digest(ordering_id, batch.batch_hash,
                                booth.booth_hash)
    partial = make_partial(pool.keys[booth.proposer_id], payload)
    fields = dict(instance_id=1, sender=booth.proposer_id,
                  ordering_id=ordering_id, batch=batch,
                  batch_hash=batch.batch_hash, booth=booth,
                  booth_hash=booth.booth_hash, proposer_partial=partial)
    fields.update(over)
    return PreOrder(**fields)


def only_reject(ctx, reason: str) -> None:
    assert rejects(ctx) == {reason: 1}


def test_valid_pre_order_yields_anchored_reply(world):
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    msg = pre_order(pool, booth, 0)
    engine.handle_pre_order(1, msg)
    assert not rejects(ctx)
    (dst, reply), = sent
    assert dst == 1
    assert reply.ordering_id == 0
    assert reply.partial.signer == 3
    expected = order_cert_digest(0, msg.batch_hash, booth.booth_hash)
    assert verify_partial(reply.partial, pool.registry.verify_key(3), expected)
    assert 0 in engine.pending
    assert engine.pending[0].booth == booth


def test_repeated_pre_order_replies_again_without_new_state(world):
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    msg = pre_order(pool, booth, 0)
    engine.handle_pre_order(1, msg)
    engine.handle_pre_order(1, msg)
    assert len(sent) == 2            # lost-reply retransmits stay answerable
    assert not rejects(ctx)
    assert len(engine.pending) == 1


def test_pre_order_reject_matrix(world):
    pool, booth = world
    batch_a = make_batch(pool, size=2, start_seq=0)
    batch_b = make_batch(pool, size=2, start_seq=10)

    cases = []

    msg = pre_order(pool, booth, 0, batch=batch_a,
                    booth_hash=b"\x00" * 32)
    cases.append(("bad_hash", 1, msg))

    msg = pre_order(pool, booth, 0, batch=batch_a)
    cases.append(("malformed", 3, msg))                # src is not proposer

    msg = pre_order(pool, booth, 0, batch=batch_a, sender=3)
    cases.append(("malformed", 1, msg))                # claimed sender wrong

    msg = pre_order(pool, booth, 0, batch=batch_a,
                    batch_hash=batch_b.batch_hash)
    cases.append(("bad_hash", 1, msg))

    wrong_payload = order_cert_digest(99, batch_a.batch_hash,
                                      booth.booth_hash)
    forged = make_partial(pool.keys[1], wrong_payload)
    msg = pre_order(pool, booth, 0, batch=batch_a, proposer_partial=forged)
    cases.append(("bad_sig", 1, msg))

    for reason, src, msg in cases:
        ctx, sent = make_ctx(pool, node_id=3)
        ValidatorOrdering(ctx).handle_pre_order(src, msg)
        only_reject(ctx, reason)
        assert sent == []


def test_pre_order_for_nonmember_is_unknown_booth(world):
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=5)     # 5 is outside the booth
    ValidatorOrdering(ctx).handle_pre_order(1, pre_order(pool, booth, 0))
    only_reject(ctx, "unknown_booth")
    assert sent == []


def test_conflicting_batch_for_pending_id_is_rejected(world):
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    engine.handle_pre_order(1, pre_order(pool, booth, 0,
                                         batch=make_batch(pool, start_seq=0)))
    engine.handle_pre_order(1, pre_order(pool, booth, 0,
                                         batch=make_batch(pool, start_seq=50)))
    assert rejects(ctx) == {"reused_id": 1}
    assert len(sent) == 1            # only the first earned a signature


def test_conflicting_batch_for_appended_id_is_rejected(world):
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    entry = certify_entry(pool, booth, 7,
                          make_batch(pool, start_seq=0))
    ctx.log.append(entry)
    engine.handle_pre_order(1, pre_order(pool, booth, 7,
                                         batch=make_batch(pool, start_seq=50)))
    only_reject(ctx, "reused_id")
    assert sent == []


def test_reply_is_one_identity_signature_whatever_keys_the_profile_carries(
        world):
    """A validator signs with its identity key alone: a profile whose
    member entry carries another key changes nothing in the reply, which
    is one 64-byte signature valid under the registered key."""
    pool, booth = world
    impostor = make_pool([3], seed=99, pivot_id=3).identity(3)
    swapped = build_profile(
        members=[impostor if m.node_id == 3 else m for m in booth.members],
        proposer_id=1, pivot_id=2)
    msg = pre_order(pool, swapped, 0)
    ctx, sent = make_ctx(pool, node_id=3)
    ValidatorOrdering(ctx).handle_pre_order(1, msg)
    assert not rejects(ctx)
    (_, reply), = sent
    assert len(reply.partial.sig_bytes) == 64
    expected = order_cert_digest(0, msg.batch_hash, swapped.booth_hash)
    assert verify_partial(reply.partial, pool.registry.verify_key(3), expected)
    assert not verify_partial(reply.partial, impostor.verify_key, expected)


def pivot_posing_booth(pool, booth):
    """The booth a byzantine proposer composes for itself: the same members,
    with vehicle 4 named pivot and relabelled one in its own member entry.
    The registry holds node 2 as the only pivot."""
    posing = [replace(m, role=Role.PIVOT) if m.node_id == 4 else m
              for m in booth.members]
    return build_profile(members=posing, proposer_id=booth.proposer_id,
                         pivot_id=4)


def test_pre_order_naming_a_pivot_the_registry_does_not_hold_is_refused(
        world):
    """No member, the real pivot included, countersigns for a booth whose
    pivot the registry does not hold as one, whatever role the profile
    gives it."""
    pool, booth = world
    msg = pre_order(pool, pivot_posing_booth(pool, booth), 0)
    for node_id in (2, 3):
        ctx, sent = make_ctx(pool, node_id=node_id)
        ValidatorOrdering(ctx).handle_pre_order(1, msg)
        only_reject(ctx, "not_pivot")
        assert sent == []


# -- certified result (O3/O4) ----------------------------------------------


def prime(pool, booth, engine, ordering_id, batch):
    """Feed a valid pre-order so the engine holds pending state."""
    engine.handle_pre_order(
        booth.proposer_id, pre_order(pool, booth, ordering_id, batch=batch))


def order_msg(entry, **over) -> OrderMsg:
    fields = dict(instance_id=1, sender=1, ordering_id=entry.ordering_id,
                  cert=entry.cert)
    fields.update(over)
    return OrderMsg(**fields)


def test_valid_order_appends_certified_entry(world):
    pool, booth = world
    ctx, _ = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    batch = make_batch(pool, size=2)
    prime(pool, booth, engine, 4, batch)
    entry = certify_entry(pool, booth, 4, batch)
    engine.handle_order(1, order_msg(entry))
    assert not rejects(ctx)
    stored = ctx.log.get(4)
    assert stored is not None
    assert stored.batch.batch_hash == batch.batch_hash
    assert stored.cert == entry.cert
    assert 4 not in engine.pending
    assert booth.booth_hash in ctx.ledger.booth_table


def test_order_without_pending_state(world):
    pool, booth = world
    ctx, _ = make_ctx(pool, node_id=3)
    engine = ValidatorOrdering(ctx)
    entry = certify_entry(pool, booth, 4, make_batch(pool))
    engine.handle_order(1, order_msg(entry))
    only_reject(ctx, "unknown_instance")

    ctx.log.append(entry)            # already appended: replay is benign
    engine.handle_order(1, order_msg(entry))
    assert rejects(ctx) == {"unknown_instance": 1, "duplicate": 1}


def test_order_reject_matrix(world):
    pool, booth = world
    batch = make_batch(pool, size=2)
    entry = certify_entry(pool, booth, 4, batch)

    def fresh_engine():
        ctx, _ = make_ctx(pool, node_id=3)
        engine = ValidatorOrdering(ctx)
        prime(pool, booth, engine, 4, batch)
        return ctx, engine

    # wrong relayer
    ctx, engine = fresh_engine()
    engine.handle_order(3, order_msg(entry))
    only_reject(ctx, "malformed")

    # quorum too large for 2f
    ctx, engine = fresh_engine()
    too_many = certify_entry(pool, booth, 4, batch, quorum=(2, 3, 4))
    engine.handle_order(1, order_msg(too_many))
    only_reject(ctx, "quorum_mismatch")

    # the proposer's own bit among the signers
    ctx, engine = fresh_engine()
    with_proposer = certify_entry(pool, booth, 4, batch, quorum=(1, 2))
    engine.handle_order(1, order_msg(with_proposer))
    only_reject(ctx, "foreign_quorum_member")

    # right size, inside the booth, but no pivot
    ctx, engine = fresh_engine()
    no_pivot = certify_entry(pool, booth, 4, batch, quorum=(3, 4))
    engine.handle_order(1, order_msg(no_pivot))
    only_reject(ctx, "pivot_missing")

    # certificate over a different ordering id
    ctx, engine = fresh_engine()
    foreign_cert = certify_entry(pool, booth, 99, batch).cert
    engine.handle_order(1, order_msg(entry, cert=foreign_cert))
    only_reject(ctx, "bad_cert")

    # signatures of 2 and 3 under a bitmap that names 2 and 4
    ctx, engine = fresh_engine()
    signed_by_23 = certify_entry(pool, booth, 4, batch, quorum=(2, 3)).cert
    claimed = AggregateSignature(bytes([0b1010]) + signed_by_23.sig_bytes[1:])
    engine.handle_order(1, order_msg(entry, cert=claimed))
    only_reject(ctx, "bad_cert")

    assert ctx.log.get(4) is None    # nothing above reached the log


def test_order_cert_digest_is_computed_once_per_round(monkeypatch):
    """The proposer computes each round's certificate digest when it starts
    the round; each validator's endorsement, its check of the certified
    result and the audit find the digest in the run memo."""
    from vguard import ledger
    from vguard.harness import RunSpec, run

    computed = []
    digest = ledger.digest

    def counted(label, *fields):
        if label == "order-cert":
            computed.append(fields)
        return digest(label, *fields)

    monkeypatch.setattr(ledger, "digest", counted)
    result = run(RunSpec(booth_size=4, duration_ms=200.0, grace_ms=300.0,
                         rate_per_s=100.0, seed=21))
    rounds = result.report["instances"][0]["ordering_messages"]["rounds"]
    assert rounds > 0
    assert len(computed) == len(set(computed)) == rounds


# -- proposer side ------------------------------------------------------------

def test_reply_endorsing_another_digest_is_wrong_digest_not_bad_sig(world):
    """A partial over another digest is a different claim, not a forged
    signature; a partial whose signer is not the sender is bad_sig."""
    pool, booth = world
    ctx, sent = make_ctx(pool, node_id=1)
    ctx.mmu = FakeMmu(booth)
    coord = OrderingCoordinator(ctx)
    coord.submit(make_batch(pool, size=2))
    rnd = coord.rounds[1]

    def reply(src, signer, payload):
        partial = make_partial(pool.keys[signer], payload)
        return OrderReply(instance_id=1, sender=src, ordering_id=1,
                          partial=partial)

    other = order_cert_digest(2, rnd.batch.batch_hash, booth.booth_hash)
    for reason, msg in (("wrong_digest", reply(3, 3, other)),
                        ("bad_sig", reply(3, 4, rnd.cert_digest))):
        ctx.env.drops.clear()
        coord.handle_reply(3, msg)
        only_reject(ctx, reason)
    assert rnd.replies == {}
    ctx.env.drops.clear()
    coord.handle_reply(3, reply(3, 3, rnd.cert_digest))
    assert not rejects(ctx)
    assert set(rnd.replies) == {3}


def test_replies_after_a_round_closes_are_late_or_stale(world):
    """A reply for a certified id counts late_reply; one for a retired id,
    for id 0, or for an id not yet issued counts stale."""
    pool, booth = world
    ctx, _ = make_ctx(pool, node_id=1)
    ctx.mmu = FakeMmu(booth)
    coord = OrderingCoordinator(ctx)
    for seq in (0, 10):
        coord.submit(make_batch(pool, size=2, start_seq=seq))
    assert sorted(coord.rounds) == [1, 2]

    def reply(src, oid):
        digest = (coord.rounds[oid].cert_digest if oid in coord.rounds
                  else b"\x00" * 32)
        partial = make_partial(pool.keys[src], digest)
        return OrderReply(instance_id=1, sender=src, ordering_id=oid,
                          partial=partial)

    for src in (2, 3):                   # the pivot and one more: quorum
        coord.handle_reply(src, reply(src, 1))
    coord._timed_out(2)                  # retired; its batch retries as id 3
    assert 1 in ctx.log and 2 in coord.retired_ids
    assert sorted(coord.rounds) == [3]
    for oid, counter in ((1, "late_reply"), (2, "stale"), (0, "stale"),
                         (4, "stale"), (99, "stale")):
        ctx.env.drops.clear()
        coord.handle_reply(4, reply(4, oid))
        assert rejects(ctx) == {counter: 1}, oid
