"""Ordering: per-batch certification through a booth quorum.

The proposer assigns each submitted batch a fresh ordering id, signs the
(id, batch hash, booth hash) binding, and asks the booth's validators to
countersign. Validators reply only after recomputing both hashes, checking
the proposer's signature, and confirming the id is unused. The round
finalizes once enough validators have countersigned and the pivot is among
them; the proposer aggregates a certificate, appends to its total order
log, and broadcasts the result so validators append too.

A round that times out or loses its booth is retired and the batch retried
under a fresh id and the current head booth. Ids are never reused across
attempts, so validator logs stay conflict-free; the proposer keeps the
retired ids, the only gaps its log and the post-run audit allow.

`QuorumRound` collects the countersignatures of a round and builds its
certificate, here and in consensus; validators accept a certificate only
through `BoothProfile.check_certified`.

The coordinator and the validator handler both lean on a context object
supplied by the node runtime: clocks, transport, key material, the shared
log, the run's tally and the proposer's latency samples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .booths import BoothProfile
from .crypto import (AggregateSignature, PartialSignature, aggregate,
                     make_partial, verify_partial)
from .errors import RejectReason
from .ledger import DataBatch, LogEntry, order_cert_digest
from .messages import OrderMsg, OrderReply, PreOrder
from .netsim import Category


def batch_wire_bytes(batch: DataBatch) -> int:
    """Metered hashing size of a batch: 16 bytes per entry plus its payload,
    plus 8. The canonical packing spends 19 bytes of framing per entry and
    5 on the list, so this is arithmetic on its length."""
    return len(batch.packed) - 3 * len(batch) + 3


@dataclass
class PendingBatch:
    batch: DataBatch
    submitted_at_us: int
    retries: int = 0


def round_timeout_ms(ctx, booth: BoothProfile) -> float:
    """How long a proposer waits for a booth's quorum: a multiple of the
    booth's round-trip latency, never under the configured floor."""
    cfg = ctx.config
    return max(cfg.timeout_factor * ctx.mmu.latency_of(booth),
               cfg.timeout_floor_ms)


@dataclass(kw_only=True)
class QuorumRound:
    """A proposer's round of countersignatures over one digest."""

    booth: BoothProfile
    cert_digest: bytes               # what the booth countersigns
    replies: dict[int, PartialSignature] = field(default_factory=dict)
    timer: Optional[object] = None

    def add_reply(self, ctx, src: int, partial: PartialSignature) -> bool:
        """Screen one member's countersignature and keep it if it verifies;
        True once 2f members, the pivot among them, have countersigned."""
        if src == ctx.node_id or src not in self.booth:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return False
        if partial.signer != src:
            ctx.diag(RejectReason.BAD_SIG)
            return False
        if partial.payload_digest != self.cert_digest:
            ctx.diag(RejectReason.WRONG_DIGEST)
            return False
        ctx.env.meter.verify(1)
        if not verify_partial(partial, ctx.registry.verify_key(src),
                              self.cert_digest):
            ctx.diag(RejectReason.BAD_SIG)
            return False
        self.replies.setdefault(src, partial)
        return (len(self.replies) >= 2 * self.booth.fault_budget
                and self.booth.pivot_id in self.replies)

    def certify(self, ctx) -> AggregateSignature:
        """Close the round: the certificate aggregates the partials of the
        pivot plus the first other repliers up to 2f."""
        if self.timer is not None:
            self.timer.cancel()
        need = 2 * self.booth.fault_budget
        pivot = self.booth.pivot_id
        parts = [self.replies[pivot]]
        for signer, partial in self.replies.items():  # first repliers first
            if len(parts) == need:
                break
            if signer != pivot:
                parts.append(partial)
        ctx.env.meter.verify(len(parts))
        return aggregate(parts, self.booth.member_ids, ctx.registry)


@dataclass
class OrderingRound(QuorumRound):
    ordering_id: int
    batch: DataBatch
    submitted_at_us: int
    retries: int
    cert: Optional[AggregateSignature] = None


class OrderingCoordinator:
    """Proposer side: one instance of this per consensus instance."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.next_id = 1
        self.rounds: dict[int, OrderingRound] = {}
        self.backlog: deque[PendingBatch] = deque()
        self.parked: deque[PendingBatch] = deque()
        # certified rounds wait here until every smaller id is appended or
        # retired, so the log (and its windows) see ids in order
        self.finished: dict[int, OrderingRound] = {}
        self.retired_ids: set[int] = set()
        self.append_next = 1
        # a saturating workload refills when a round frees capacity
        self.on_capacity: Optional[Callable[[], None]] = None
        ctx.mmu.on_booth_invalidated(self._booth_lost)
        ctx.mmu.on_booth_available(self._unpark)

    # -- intake ------------------------------------------------------------

    def submit(self, batch: DataBatch) -> None:
        pb = PendingBatch(batch, self.ctx.env.now_us())
        if len(self.rounds) >= self.ctx.config.max_inflight:
            self.backlog.append(pb)
        else:
            self._start(pb)

    def inflight(self) -> int:
        return len(self.rounds) + len(self.backlog) + len(self.parked)

    def _start(self, pb: PendingBatch) -> None:
        ctx = self.ctx
        booth = ctx.mmu.current_booth()
        if booth is None:
            self.parked.append(pb)
            return
        oid = self.next_id
        self.next_id += 1
        payload = order_cert_digest(oid, pb.batch.batch_hash, booth.booth_hash)
        ctx.env.meter.hash_bytes(batch_wire_bytes(pb.batch))
        ctx.env.meter.sign(1)
        own = make_partial(ctx.key, payload)
        rnd = OrderingRound(
            ordering_id=oid, batch=pb.batch, booth=booth,
            submitted_at_us=pb.submitted_at_us, retries=pb.retries,
            cert_digest=payload)
        self.rounds[oid] = rnd
        msg = PreOrder(instance_id=ctx.instance_id, sender=ctx.node_id,
                       ordering_id=oid, batch=pb.batch,
                       batch_hash=pb.batch.batch_hash, booth=booth,
                       booth_hash=booth.booth_hash, proposer_partial=own)
        for member in booth.validators():
            ctx.send(member, msg, Category.ORDERING, oid)
        rnd.timer = ctx.env.after(round_timeout_ms(ctx, booth),
                                  lambda: self._timed_out(oid))

    # -- replies -----------------------------------------------------------

    def handle_reply(self, src: int, msg: OrderReply) -> None:
        ctx = self.ctx
        oid = msg.ordering_id
        rnd = self.rounds.get(oid)
        if rnd is None:
            # an issued id leaves `rounds` certified or retired
            if 0 < oid < self.next_id and oid not in self.retired_ids:
                # the round met quorum without it
                ctx.env.drops[ctx.node_id, "late_reply"] += 1
            else:
                ctx.diag(RejectReason.STALE)
            return
        if not rnd.add_reply(ctx, src, msg.partial):
            return
        rnd.cert = rnd.certify(ctx)
        del self.rounds[rnd.ordering_id]
        self.finished[rnd.ordering_id] = rnd
        self._drain_appends()
        self._pump()

    def _drain_appends(self) -> None:
        ctx = self.ctx
        while True:
            if self.append_next in self.retired_ids:
                self.append_next += 1
                continue
            rnd = self.finished.pop(self.append_next, None)
            if rnd is None:
                return
            entry = LogEntry(
                ordering_id=rnd.ordering_id, batch=rnd.batch,
                booth_hash=rnd.booth.booth_hash, cert=rnd.cert,
                appended_at_us=ctx.env.now_us())
            ctx.log.append(entry)
            ctx.ledger.note_booth(rnd.booth)
            ctx.metrics.ordered(rnd.ordering_id, rnd.submitted_at_us,
                                ctx.env.now_us())
            ctx.count("ordered_batches")
            ctx.count("ordered_entries", len(rnd.batch))
            out = OrderMsg(instance_id=ctx.instance_id, sender=ctx.node_id,
                           ordering_id=rnd.ordering_id, cert=rnd.cert)
            for member in rnd.booth.validators():
                ctx.send(member, out, Category.ORDERING, rnd.ordering_id)
            self.append_next += 1

    # -- retries -----------------------------------------------------------

    def _timed_out(self, oid: int) -> None:
        rnd = self.rounds.pop(oid, None)
        if rnd is not None:
            self._retire(rnd, "timeout")

    def _booth_lost(self, booth_hash: bytes) -> None:
        for oid in [o for o, r in self.rounds.items()
                    if r.booth.booth_hash == booth_hash]:
            rnd = self.rounds.pop(oid)
            if rnd.timer is not None:
                rnd.timer.cancel()
            self._retire(rnd, "booth lost")

    def _retire(self, rnd: OrderingRound, why: str) -> None:
        ctx = self.ctx
        self.retired_ids.add(rnd.ordering_id)
        self._drain_appends()
        pb = PendingBatch(rnd.batch, rnd.submitted_at_us, rnd.retries + 1)
        if pb.retries > ctx.config.max_retries:
            ctx.count("abandoned_batches")
            self._pump()
            return
        self._start(pb)

    def _unpark(self) -> None:
        while self.parked:
            if self.ctx.mmu.current_booth() is None:
                return
            self._start(self.parked.popleft())
        self._pump()

    def _pump(self) -> None:
        while self.backlog and len(self.rounds) < self.ctx.config.max_inflight:
            self._start(self.backlog.popleft())
        if self.on_capacity is not None:
            self.on_capacity()


# -- validator side -------------------------------------------------------

def booth_admitted(ctx, src: int, msg) -> bool:
    """A validator's shared screen of the booth a pre-order or pre-commit
    proposes, before it countersigns for it: the hash matches, the proposer
    sent it, this node is a member, and the registry holds the pivot as one.
    A failure is counted under its reason."""
    booth = msg.booth
    if booth.booth_hash != msg.booth_hash:
        reason = RejectReason.BAD_HASH
    elif src != booth.proposer_id or msg.sender != booth.proposer_id:
        reason = RejectReason.MALFORMED
    elif ctx.node_id not in booth:
        reason = RejectReason.UNKNOWN_BOOTH
    elif not ctx.registry.is_pivot(booth.pivot_id):
        reason = RejectReason.NOT_PIVOT
    else:
        return True
    ctx.diag(reason)
    return False


def proposer_signed(ctx, booth: BoothProfile, p: PartialSignature,
                    expected: bytes) -> bool:
    """A validator's check that the booth's proposer endorsed `expected`;
    a failure is counted as bad_sig."""
    ctx.env.meter.verify(1)
    if (p.signer != booth.proposer_id or p.payload_digest != expected
            or not verify_partial(p, ctx.registry.verify_key(p.signer),
                                  expected)):
        ctx.diag(RejectReason.BAD_SIG)
        return False
    return True


@dataclass
class PendingOrder:
    batch: DataBatch
    booth: BoothProfile


class ValidatorOrdering:
    def __init__(self, ctx):
        self.ctx = ctx
        self.pending: dict[int, PendingOrder] = {}

    def handle_pre_order(self, src: int, msg: PreOrder) -> None:
        ctx = self.ctx
        booth = msg.booth
        ctx.env.meter.hash_bytes(batch_wire_bytes(msg.batch) + 64 * booth.size)
        if not booth_admitted(ctx, src, msg):
            return
        if msg.batch.batch_hash != msg.batch_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        expected = order_cert_digest(msg.ordering_id, msg.batch_hash,
                                     msg.booth_hash)
        if not proposer_signed(ctx, booth, msg.proposer_partial, expected):
            return

        appended = ctx.log.get(msg.ordering_id)
        if appended is not None and appended.batch.batch_hash != msg.batch_hash:
            ctx.diag(RejectReason.REUSED_ID)
            return
        known = self.pending.get(msg.ordering_id)
        if known is not None and (known.batch.batch_hash != msg.batch_hash
                                  or known.booth.booth_hash != msg.booth_hash):
            ctx.diag(RejectReason.REUSED_ID)
            return

        if known is None:
            self.pending[msg.ordering_id] = PendingOrder(msg.batch, booth)
        ctx.env.meter.sign(1)
        reply = OrderReply(instance_id=ctx.instance_id, sender=ctx.node_id,
                           ordering_id=msg.ordering_id,
                           partial=make_partial(ctx.key, expected))
        ctx.send(src, reply, Category.ORDERING, msg.ordering_id)

    def handle_order(self, src: int, msg: OrderMsg) -> None:
        ctx = self.ctx
        po = self.pending.get(msg.ordering_id)
        if po is None:
            if msg.ordering_id in ctx.log:
                ctx.diag(RejectReason.DUPLICATE)
            else:
                ctx.diag(RejectReason.UNKNOWN_INSTANCE)
            return
        booth = po.booth
        if src != booth.proposer_id or msg.sender != booth.proposer_id:
            ctx.diag(RejectReason.MALFORMED)
            return
        expected = order_cert_digest(msg.ordering_id, po.batch.batch_hash,
                                     booth.booth_hash)
        reason = booth.check_certified(msg.cert, expected, ctx.registry,
                                       ctx.env.meter)
        if reason is not None:
            ctx.diag(reason)
            return
        entry = LogEntry(
            ordering_id=msg.ordering_id, batch=po.batch,
            booth_hash=booth.booth_hash, cert=msg.cert,
            appended_at_us=ctx.env.now_us())
        ctx.log.append(entry)
        ctx.ledger.note_booth(booth)
        del self.pending[msg.ordering_id]
