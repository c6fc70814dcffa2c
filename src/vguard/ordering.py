"""Ordering: per-batch certification through a booth quorum.

The proposer assigns each submitted batch a fresh ordering id, signs the
(id, batch hash, booth hash) binding, and asks the booth's validators to
countersign. Validators reply only after recomputing both hashes, checking
the proposer's signature, and confirming the id is unused. The round
finalizes once enough validators have countersigned and the pivot is among
them; the proposer aggregates a certificate, appends to its total order
log, and broadcasts the result so validators append too.

Ordering and consensus share one round lifecycle, `RoundCoordinator`,
and one collector, `QuorumRound`. Ordering adds its keys: an id is never
reused, so a round that times out or loses its booth is retired and its
batch retried under a fresh id in the current head booth. The proposer
keeps the retired ids, the only gaps its log and the post-run audit
allow. Batches beyond `max_inflight` open rounds wait in a backlog.

Validators of both phases screen a proposal with `booth_admitted` and
`proposer_signed`, and accept a certified result through
`booth_certified`, which calls `BoothProfile.check_certified`.

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
from .ledger import DataBatch, order_cert_digest
from .messages import OrderMsg, OrderReply, PreOrder


def batch_wire_bytes(batch: DataBatch) -> int:
    """Metered hashing size of a batch: 16 bytes per entry plus its payload,
    plus 8. The canonical packing spends 19 bytes of framing per entry and
    5 on the list, so this is arithmetic on its length."""
    return len(batch.packed) - 3 * len(batch) + 3


@dataclass(kw_only=True, slots=True)
class QuorumRound:
    """A proposer's round of countersignatures over one digest."""

    booth: Optional[BoothProfile] = None   # set when the round opens
    cert_digest: bytes = b""               # what the booth countersigns
    attempt: int = 0                       # earlier tries of its work
    replies: dict[int, PartialSignature] = field(default_factory=dict)
    timer: Optional[object] = None
    cert: Optional[AggregateSignature] = None
    certified_at_us: int = 0

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

    def certify(self, ctx) -> None:
        """Close the round: keep its certificate, which aggregates the
        partials of the pivot plus the first other repliers up to 2f, and
        the time it was made."""
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
        self.cert = aggregate(parts, self.booth.member_ids, ctx.registry)
        self.certified_at_us = ctx.env.now_us()


class RoundCoordinator:
    """The proposer's round lifecycle over int keys (ordering ids, window
    timestamps). A round opens in the head booth, or parks until there is
    one; parked keys resume in key order. A round that times out or loses
    its booth is tried again until `max_retries` tries have failed,
    whatever ended each. Keys release in key order, each settled certified
    or skipped (None: a retired key or an empty window). A subclass gives
    `_digest`, `_propose` (send; the extra wait), `_release`, `_again`,
    `_give_up` and, to start queued work, `_pump`."""

    def __init__(self, ctx, first_key: int, step: int):
        self.ctx = ctx
        self.step = step
        self.first_key = self.release_next = first_key
        self.rounds: dict[int, QuorumRound] = {}
        self.parked: dict[int, QuorumRound] = {}
        # closed keys wait here until every smaller key has closed, so the
        # log and the ledger see keys in order
        self.settled: dict[int, Optional[QuorumRound]] = {}
        self.retired_ids: set[int] = set()   # keys settled as skipped
        ctx.mmu.on_booth_invalidated(self._booth_lost)
        ctx.mmu.on_booth_available(self._unpark)

    def _open(self, key: int, rnd: QuorumRound) -> None:
        """Sign the round's digest in the head booth, propose it and arm
        the timer: a multiple of the booth's round trip, never under the
        floor, plus the proposal's extra wait. With no booth, park it."""
        ctx, cfg = self.ctx, self.ctx.config
        booth = ctx.mmu.current_booth()
        if booth is None:
            self.parked[key] = rnd
            return
        rnd.booth = booth
        rnd.cert_digest = payload = self._digest(key, rnd)
        ctx.env.meter.sign(1)
        self.rounds[key] = rnd
        extra_ms = self._propose(key, rnd, make_partial(ctx.key, payload))
        timeout = max(cfg.timeout_factor * ctx.mmu.latency_of(booth),
                      cfg.timeout_floor_ms) + extra_ms
        # every other way a round closes cancels this timer, and the network
        # runs no cancelled timer; the check ties it to its round all the same
        rnd.timer = ctx.env.after(timeout, lambda: (
            self.rounds.get(key) is rnd and self._timed_out(key)))

    def _take_reply(self, src: int, key: int,
                    partial: PartialSignature) -> None:
        """Screen one countersignature; certify and settle its round once
        it completes the quorum. A reply for a round that is no longer open
        counts late if the round was certified, else stale."""
        ctx = self.ctx
        rnd = self.rounds.get(key)
        if rnd is None:
            certified = (self.settled.get(key) is not None
                         or (self.first_key <= key < self.release_next
                             and key not in self.retired_ids))
            ctx.diag(RejectReason.LATE_REPLY if certified
                     else RejectReason.STALE)
            return
        if not rnd.add_reply(ctx, src, partial):
            return
        rnd.certify(ctx)
        del self.rounds[key]
        self._settle(key, rnd)
        self._pump()

    def _settle(self, key: int, rnd: Optional[QuorumRound]) -> None:
        """Record how `key` closed, then release every settled key that no
        unsettled smaller key holds back, in key order."""
        settled = self.settled
        settled[key] = rnd
        while self.release_next in settled:
            key = self.release_next
            self.release_next += self.step
            self._release(key, settled.pop(key))

    def _timed_out(self, key: int) -> None:
        self._retry(key, self.rounds.pop(key), timed_out=True)

    def _booth_lost(self, booth_hash: bytes) -> None:
        for key in [k for k, r in self.rounds.items()
                    if r.booth.booth_hash == booth_hash]:
            rnd = self.rounds.pop(key)
            rnd.timer.cancel()
            self._retry(key, rnd, timed_out=False)

    def _retry(self, key: int, rnd: QuorumRound, timed_out: bool) -> None:
        """Charge the try that just failed to its work's budget."""
        if rnd.attempt + 1 > self.ctx.config.max_retries:
            self._give_up(key, rnd)
        else:
            self._again(key, rnd, timed_out)

    def _unpark(self) -> None:
        for key in sorted(self.parked):
            if self.ctx.mmu.current_booth() is None:
                return
            self._open(key, self.parked.pop(key))
        self._pump()

    def _retire(self, key: int) -> None:
        """Settle `key` as skipped: it releases nothing, a late reply to it
        counts stale, and it holds back no later key."""
        self.retired_ids.add(key)
        self._settle(key, None)

    def _pump(self) -> None:
        """Start queued work once a round frees capacity; none by default."""


@dataclass(slots=True)
class OrderingRound(QuorumRound):
    """An ordering round over one batch, and its submit time."""

    batch: DataBatch
    submitted_at_us: int


class OrderingCoordinator(RoundCoordinator):
    """Proposer side: one instance of this per consensus instance."""

    def __init__(self, ctx):
        super().__init__(ctx, first_key=1, step=1)
        self.next_id = 1
        self.backlog: deque[tuple[DataBatch, int]] = deque()
        # a saturating workload refills when a round frees capacity
        self.on_capacity: Optional[Callable[[], None]] = None

    # -- intake ------------------------------------------------------------

    def submit(self, batch: DataBatch) -> None:
        if len(self.rounds) >= self.ctx.config.max_inflight:
            self.backlog.append((batch, self.ctx.env.now_us()))
        else:
            self._start(batch, self.ctx.env.now_us())

    def inflight(self) -> int:
        return len(self.rounds) + len(self.backlog) + len(self.parked)

    def _start(self, batch: DataBatch, submitted_at_us: int,
               attempt: int = 0) -> None:
        """Open a round under the next id, taken even if the round parks:
        parked rounds reopen in id order before any later one opens."""
        oid = self.next_id
        self.next_id += 1
        self._open(oid, OrderingRound(
            batch=batch, submitted_at_us=submitted_at_us, attempt=attempt))

    def _digest(self, oid: int, rnd: OrderingRound) -> bytes:
        return order_cert_digest(oid, rnd.batch.batch_hash,
                                 rnd.booth.booth_hash)

    def _propose(self, oid: int, rnd: OrderingRound,
                 own: PartialSignature) -> float:
        ctx, batch, booth = self.ctx, rnd.batch, rnd.booth
        ctx.env.meter.hash_bytes(batch_wire_bytes(batch))
        msg = PreOrder(instance_id=ctx.instance_id, sender=ctx.node_id,
                       ordering_id=oid, batch=batch,
                       batch_hash=batch.batch_hash, booth=booth,
                       booth_hash=booth.booth_hash, proposer_partial=own)
        for member in booth.validators():
            ctx.send(member, msg)
        return 0

    # -- replies and release ----------------------------------------------

    def handle_reply(self, src: int, msg: OrderReply) -> None:
        self._take_reply(src, msg.ordering_id, msg.partial)

    def _release(self, oid: int, rnd: Optional[OrderingRound]) -> None:
        """Append a certified round to the log and send its certificate to
        the booth; a retired id appends nothing."""
        if rnd is None:
            return
        ctx = self.ctx
        ctx.log_certified(oid, rnd.batch, rnd.booth, rnd.cert)
        ctx.metrics.ordered(oid, rnd.submitted_at_us, ctx.env.now_us())
        ctx.count("ordered_batches")
        ctx.count("ordered_entries", len(rnd.batch))
        out = OrderMsg(instance_id=ctx.instance_id, sender=ctx.node_id,
                       ordering_id=oid, cert=rnd.cert)
        for member in rnd.booth.validators():
            ctx.send(member, out)

    # -- retries -----------------------------------------------------------

    def _again(self, oid: int, rnd: OrderingRound, timed_out: bool) -> None:
        self._retire(oid)
        self._start(rnd.batch, rnd.submitted_at_us, rnd.attempt + 1)

    def _give_up(self, oid: int, rnd: OrderingRound) -> None:
        self._retire(oid)
        self.ctx.count("abandoned_batches")
        self._pump()

    def _pump(self) -> None:
        while self.backlog and len(self.rounds) < self.ctx.config.max_inflight:
            self._start(*self.backlog.popleft())
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


def booth_certified(ctx, src: int, msg, booth: BoothProfile,
                    expected: bytes) -> bool:
    """A validator's check of a certified order or commit: the booth's
    proposer sent it, and its certificate over `expected` counts in the
    booth. A failure is counted under its reason."""
    reason = (RejectReason.MALFORMED
              if src != booth.proposer_id or msg.sender != booth.proposer_id
              else booth.check_certified(msg.cert, expected, ctx.registry,
                                         ctx.env.meter))
    if reason is not None:
        ctx.diag(reason)
    return reason is None


@dataclass(slots=True)
class PendingOrder:
    """A pre-order a validator holds until the batch's order."""

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
        ctx.send(src, reply)

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
        expected = order_cert_digest(msg.ordering_id, po.batch.batch_hash,
                                     booth.booth_hash)
        if not booth_certified(ctx, src, msg, booth, expected):
            return
        ctx.log_certified(msg.ordering_id, po.batch, booth, msg.cert)
        del self.pending[msg.ordering_id]
