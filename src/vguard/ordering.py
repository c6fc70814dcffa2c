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
attempts, so validator logs stay conflict-free; the journal keeps the
id history per batch for post-run audits.

The coordinator and the validator handler both lean on a context object
supplied by the node runtime: clocks, transport, key material, the shared
log, diagnostic counters, and metric sinks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .booths import BoothProfile
from .crypto import (PartialSignature, aggregate, make_partial,
                     verify_aggregate, verify_partial)
from .errors import RejectReason
from .ledger import DataBatch, LogEntry, order_cert_digest
from .messages import OrderMsg, OrderReply, PreOrder
from .netsim import Category


def batch_wire_bytes(batch: DataBatch) -> int:
    """Metered hashing size of a batch: 16 bytes per entry plus its payload,
    plus 8. The canonical packing spends 19 bytes of framing per entry and
    5 on the list, so this is arithmetic on its length."""
    return len(batch.packed) - 3 * len(batch) + 3


PROPOSED = "proposed"
ORDERED = "ordered"
RETIRED = "retired"
FAILED = "failed"


@dataclass
class PendingBatch:
    batch: DataBatch
    submitted_at_us: int
    retries: int = 0


@dataclass
class OrderingRound:
    ordering_id: int
    batch: DataBatch
    booth: BoothProfile
    submitted_at_us: int
    started_at_us: int
    retries: int
    own_partial: PartialSignature
    cert_digest: bytes               # what the booth countersigns
    replies: dict[int, PartialSignature] = field(default_factory=dict)
    timer: Optional[object] = None
    done: bool = False
    quorum: tuple[int, ...] = ()
    cert: Optional[object] = None


class OrderingCoordinator:
    """Proposer side: one instance of this per consensus instance."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.next_id = 1
        self.rounds: dict[int, OrderingRound] = {}
        self.completed: set[int] = set()
        self.backlog: deque[PendingBatch] = deque()
        self.parked: deque[PendingBatch] = deque()
        self.failed: list[PendingBatch] = []
        self.journal: dict[bytes, list[tuple[int, str]]] = {}
        # certified rounds wait here until every smaller id is appended or
        # retired, so the log (and its windows) see ids in order
        self.finished: dict[int, OrderingRound] = {}
        self.retired_ids: set[int] = set()
        self.append_next = 1
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
        booth = ctx.mmu.current_booth("ordering")
        if booth is None:
            self.parked.append(pb)
            return
        oid = self.next_id
        self.next_id += 1
        payload = order_cert_digest(oid, pb.batch.batch_hash, booth.booth_hash)
        share = ctx.registry.booth_share(booth.booth_hash, ctx.node_id)
        ctx.env.meter.hash_bytes(batch_wire_bytes(pb.batch))
        ctx.env.meter.sign(2)
        own = make_partial(ctx.key, payload, share)
        rnd = OrderingRound(
            ordering_id=oid, batch=pb.batch, booth=booth,
            submitted_at_us=pb.submitted_at_us,
            started_at_us=ctx.env.now_us(), retries=pb.retries, own_partial=own,
            cert_digest=payload)
        self.rounds[oid] = rnd
        self.journal.setdefault(pb.batch.batch_hash, []).append((oid, PROPOSED))
        msg = PreOrder(instance_id=ctx.instance_id, sender=ctx.node_id,
                       ordering_id=oid, batch=pb.batch,
                       batch_hash=pb.batch.batch_hash, booth=booth,
                       booth_hash=booth.booth_hash, proposer_partial=own)
        for member in booth.validators():
            ctx.send(member, msg, Category.ORDERING, oid)
        rnd.timer = ctx.env.after(self._timeout_ms(booth),
                                  lambda: self._timed_out(oid))

    def _timeout_ms(self, booth: BoothProfile, extra_ms: float = 0.0) -> float:
        cfg = self.ctx.config
        rtt = self.ctx.mmu.booth_latency(booth.booth_hash)
        return max(cfg.timeout_factor * rtt, cfg.timeout_floor_ms) + extra_ms

    # -- replies -----------------------------------------------------------

    def handle_reply(self, src: int, msg: OrderReply) -> None:
        ctx = self.ctx
        rnd = self.rounds.get(msg.ordering_id)
        if rnd is None or rnd.done:
            if msg.ordering_id in self.completed:
                ctx.counters["late_reply"] += 1   # round met quorum without it
            else:
                ctx.diag(RejectReason.STALE)
            return
        if src == ctx.node_id or src not in rnd.booth:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        expected = rnd.cert_digest
        p = msg.partial
        if p.signer != src:
            ctx.diag(RejectReason.BAD_SIG)
            return
        if p.payload_digest != expected:
            ctx.diag(RejectReason.WRONG_DIGEST)
            return
        ctx.env.meter.verify(1)
        if not verify_partial(p, ctx.registry.verify_key(src), expected):
            ctx.diag(RejectReason.BAD_SIG)
            return
        rnd.replies.setdefault(src, p)
        need = 2 * rnd.booth.fault_budget
        if len(rnd.replies) >= need and rnd.booth.pivot_id in rnd.replies:
            self._finalize(rnd)

    def _finalize(self, rnd: OrderingRound) -> None:
        ctx = self.ctx
        rnd.done = True
        if rnd.timer is not None:
            rnd.timer.cancel()
        need = 2 * rnd.booth.fault_budget
        quorum_ids = [rnd.booth.pivot_id]
        for signer in rnd.replies:               # insertion order: first repliers
            if signer != rnd.booth.pivot_id:
                quorum_ids.append(signer)
            if len(quorum_ids) == need:
                break
        rnd.quorum = tuple(sorted(quorum_ids))
        parts = [rnd.replies[s] for s in rnd.quorum]
        ctx.env.meter.verify(len(parts))
        rnd.cert = aggregate(parts, ctx.registry.material(rnd.booth.booth_hash))
        del self.rounds[rnd.ordering_id]
        self.completed.add(rnd.ordering_id)
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
                ordering_id=rnd.ordering_id, batch=rnd.batch, quorum=rnd.quorum,
                booth_hash=rnd.booth.booth_hash, cert=rnd.cert,
                appended_at_us=ctx.env.now_us(),
                reply_set=(rnd.own_partial, *rnd.replies.values()))
            ctx.log.append(entry)
            ctx.booth_profiles[rnd.booth.booth_hash] = rnd.booth
            ctx.ledger.note_booth(rnd.booth)
            self.journal[rnd.batch.batch_hash].append((rnd.ordering_id, ORDERED))
            ctx.metrics.ordered(rnd.ordering_id, rnd.batch,
                                rnd.submitted_at_us, ctx.env.now_us())
            out = OrderMsg(instance_id=ctx.instance_id, sender=ctx.node_id,
                           ordering_id=rnd.ordering_id, quorum=rnd.quorum,
                           cert=rnd.cert)
            for member in rnd.booth.validators():
                ctx.send(member, out, Category.ORDERING, rnd.ordering_id)
            self.append_next += 1

    # -- retries -----------------------------------------------------------

    def _timed_out(self, oid: int) -> None:
        rnd = self.rounds.pop(oid, None)
        if rnd is None or rnd.done:
            return
        self._retire(rnd, "timeout")

    def _booth_lost(self, booth_hash: bytes) -> None:
        for oid in [o for o, r in self.rounds.items()
                    if r.booth.booth_hash == booth_hash and not r.done]:
            rnd = self.rounds.pop(oid)
            if rnd.timer is not None:
                rnd.timer.cancel()
            self._retire(rnd, "booth lost")

    def _retire(self, rnd: OrderingRound, why: str) -> None:
        ctx = self.ctx
        self.journal[rnd.batch.batch_hash].append((rnd.ordering_id, RETIRED))
        self.retired_ids.add(rnd.ordering_id)
        self._drain_appends()
        pb = PendingBatch(rnd.batch, rnd.submitted_at_us, rnd.retries + 1)
        if pb.retries > ctx.config.max_retries:
            self.journal[rnd.batch.batch_hash].append((rnd.ordering_id, FAILED))
            self.failed.append(pb)
            ctx.metrics.abandoned(rnd.batch)
            self._pump()
            return
        self._start(pb)

    def _unpark(self) -> None:
        while self.parked:
            if self.ctx.mmu.current_booth("ordering") is None:
                return
            self._start(self.parked.popleft())
        self._pump()

    def _pump(self) -> None:
        while self.backlog and len(self.rounds) < self.ctx.config.max_inflight:
            self._start(self.backlog.popleft())
        self.ctx.metrics.capacity_freed()


# -- validator side -------------------------------------------------------

@dataclass
class PendingOrder:
    batch: DataBatch
    batch_hash: bytes
    booth: BoothProfile
    received_at_us: int
    cert_digest: bytes               # what this node countersigned


class ValidatorOrdering:
    def __init__(self, ctx):
        self.ctx = ctx
        self.pending: dict[int, PendingOrder] = {}

    def handle_pre_order(self, src: int, msg: PreOrder) -> None:
        ctx = self.ctx
        booth = msg.booth
        ctx.env.meter.hash_bytes(batch_wire_bytes(msg.batch) + 64 * booth.size)
        if booth.booth_hash != msg.booth_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        if src != booth.proposer_id or msg.sender != booth.proposer_id:
            ctx.diag(RejectReason.MALFORMED)
            return
        if ctx.node_id not in booth:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        if msg.batch.batch_hash != msg.batch_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        expected = order_cert_digest(msg.ordering_id, msg.batch_hash,
                                     msg.booth_hash)
        p = msg.proposer_partial
        ctx.env.meter.verify(1)
        if (p.signer != booth.proposer_id or p.payload_digest != expected
                or not verify_partial(p, ctx.registry.verify_key(p.signer),
                                      expected)):
            ctx.diag(RejectReason.BAD_SIG)
            return

        appended = ctx.log.get(msg.ordering_id)
        if appended is not None and appended.batch.batch_hash != msg.batch_hash:
            ctx.diag(RejectReason.REUSED_ID)
            return
        known = self.pending.get(msg.ordering_id)
        if known is not None and (known.batch_hash != msg.batch_hash
                                  or known.booth.booth_hash != msg.booth_hash):
            ctx.diag(RejectReason.REUSED_ID)
            return

        share = ctx.registry.booth_share(msg.booth_hash, ctx.node_id)
        if share is None:
            ctx.diag(RejectReason.NO_SHARE)
            return
        if known is None:
            self.pending[msg.ordering_id] = PendingOrder(
                batch=msg.batch, batch_hash=msg.batch_hash, booth=booth,
                received_at_us=ctx.env.now_us(), cert_digest=expected)
            ctx.booth_profiles.setdefault(booth.booth_hash, booth)
        ctx.env.meter.sign(2)
        reply = OrderReply(instance_id=ctx.instance_id, sender=ctx.node_id,
                           ordering_id=msg.ordering_id,
                           partial=make_partial(ctx.key, expected, share))
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
        need = 2 * booth.fault_budget
        quorum = set(msg.quorum)
        if len(quorum) != need or len(msg.quorum) != need:
            ctx.diag(RejectReason.QUORUM_MISMATCH)
            return
        if not quorum <= set(booth.member_ids):
            ctx.diag(RejectReason.FOREIGN_QUORUM_MEMBER)
            return
        if booth.pivot_id not in quorum:
            ctx.diag(RejectReason.PIVOT_MISSING)
            return
        expected = po.cert_digest
        ctx.env.meter.verify(booth.threshold)
        if not verify_aggregate(msg.cert, expected, booth.directory_map,
                                booth.threshold):
            ctx.diag(RejectReason.BAD_CERT)
            return
        if set(msg.cert.signers(booth.member_ids)) != quorum:
            ctx.diag(RejectReason.QUORUM_MISMATCH)
            return
        entry = LogEntry(
            ordering_id=msg.ordering_id, batch=po.batch,
            quorum=tuple(sorted(quorum)), booth_hash=booth.booth_hash,
            cert=msg.cert, appended_at_us=ctx.env.now_us())
        ctx.log.append(entry)
        ctx.ledger.note_booth(booth)
        del self.pending[msg.ordering_id]
