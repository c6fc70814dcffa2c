"""Node runtime: one process worth of protocol state.

A runtime owns a node's signing key, decodes incoming envelopes, and
routes them to per-instance engines. Proposer instances are declared up
front (membership unit, workload intake, window clock); validator state
is created lazily the first time an instance's traffic arrives, since any
pool member can be drafted into a booth at any time.

Byzantine nodes run the same runtime with a transform bolted onto the
send path, so their misbehavior is subject to exactly the checks honest
receivers apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from .booths import BoothProfile
from .consensus import ConsensusCoordinator, ValidatorConsensus
from .crypto import AggregateSignature, KeyService, SigningKey, make_partial
from .errors import POSITIVE, RejectReason
from .gossip import GossipAgent
from .ledger import (DataBatch, Ledger, LogEntry, TotalOrderLog,
                     order_cert_digest)
from .messages import (CommitMsg, CommitReply, GossipAck, GossipMsg, OrderMsg,
                       OrderReply, Ping, Pong, PreCommitSeen, PreCommitUnseen,
                       PreOrder, TraverseHop, decode_message, traverse_digest)
from .mmu import MembershipUnit
from .netsim import ByzantineBehavior, Category, NodeEnv
from .ordering import OrderingCoordinator, ValidatorOrdering
from .storage import StorageMaster


@dataclass(frozen=True)
class ProtocolConfig:
    """Round timeouts, retries and in-flight limits of the engines."""

    timeout_floor_ms: float = 25.0
    timeout_factor: float = 4.0
    max_retries: int = 50
    max_inflight: int = field(default=8, metadata=POSITIVE)
    unseen_allowance_ms: float = 0.5   # extra wait per entry on the full path


class MetricSink:
    """A proposer instance's latency samples; it counts through `ctx.count`."""

    def __init__(self):
        self.ordering_latency_us: list[int] = []
        self.commit_latency_us: list[int] = []
        self._submit_us: dict[int, int] = {}

    def ordered(self, ordering_id: int, submitted_at_us: int,
                now_us: int) -> None:
        self.ordering_latency_us.append(now_us - submitted_at_us)
        self._submit_us[ordering_id] = submitted_at_us

    def committed(self, tx, now_us: int) -> None:
        for entry in tx.entries:
            submitted = self._submit_us.get(entry.ordering_id)
            if submitted is not None:
                self.commit_latency_us.append(now_us - submitted)


@dataclass
class InstanceContext:
    """Everything an engine needs from its host node, bundled."""

    instance_id: int
    node_id: int
    env: NodeEnv
    registry: KeyService
    key: SigningKey
    config: ProtocolConfig
    delta_us: int                      # window length
    send: Callable[[int, object, Category, object], None]
    log: TotalOrderLog
    ledger: Ledger
    metrics: MetricSink
    gossip: Optional[GossipAgent] = None
    mmu: Optional[MembershipUnit] = None

    def diag(self, reason: RejectReason) -> None:
        self.env.drops[self.node_id, reason] += 1

    def count(self, event: str, n: int = 1) -> None:
        self.env.events[event, self.instance_id] += n

    def log_certified(self, ordering_id: int, batch: DataBatch,
                      booth: BoothProfile, cert: AggregateSignature) -> None:
        """Log an entry certified in `booth`, and note the booth."""
        self.log.append(LogEntry(ordering_id, batch, booth.booth_hash, cert,
                                 self.env.now_us()))
        self.ledger.note_booth(booth)


@dataclass
class ProposerInstance:
    """A node's proposer side of one instance."""

    ctx: InstanceContext
    ordering: OrderingCoordinator
    consensus: ConsensusCoordinator


@dataclass
class ValidatorInstance:
    """A node's validator side of one instance."""

    ctx: InstanceContext
    ordering: ValidatorOrdering
    consensus: ValidatorConsensus


class PingDaemon:
    """Proposer-side liveness probe per pool member. An unanswered probe
    counts as a miss when the next one fires; the membership unit decides
    when misses become a down mark."""

    def __init__(self, runtime: "NodeRuntime", mmu: MembershipUnit,
                 instance_id: int):
        self.runtime = runtime
        self.mmu = mmu
        self.instance_id = instance_id
        self.targets = sorted(set(mmu.pool) - {runtime.node_id})
        self.seq = 0
        self.outstanding: dict[int, Optional[int]] = {}

    def start(self) -> None:
        self.runtime.env.every(self.mmu.config.ping_period_ms, self.tick)

    def tick(self) -> None:
        runtime, outstanding = self.runtime, self.outstanding
        now_us = runtime.env.now_us()
        for target in self.targets:
            if outstanding.get(target) is not None:
                self.mmu.note_missed_ping(target)
            self.seq = seq = self.seq + 1
            outstanding[target] = seq
            runtime.send_msg(target, Ping(
                instance_id=self.instance_id, sender=runtime.node_id, seq=seq,
                sent_at_us=now_us), Category.PING, None)

    def on_pong(self, src: int, msg: Pong) -> None:
        if self.outstanding.get(src) != msg.seq:
            return
        self.outstanding[src] = None
        rtt_ms = (self.runtime.env.now_us() - msg.sent_at_us) / 1000.0
        self.mmu.note_rtt(src, rtt_ms)


# each behavior, read off its enum once: `transform` runs per message
_SILENT, _EQUIVOCATE, _TAMPER, _FORGE, _MUTATE_LIFETIME = (
    ByzantineBehavior.SILENT, ByzantineBehavior.EQUIVOCATE_ORDERING_ID,
    ByzantineBehavior.TAMPER_PAYLOAD, ByzantineBehavior.FORGE_QUORUM,
    ByzantineBehavior.MUTATE_GOSSIP_LIFETIME)


class ByzantineActor:
    """Rewrites outgoing traffic according to the configured behaviors.
    The actor holds the node's real key, so its forgeries are exactly as
    strong as a compromised vehicle's could be.

    A broadcast hands one message object to `transform` once per
    recipient, and every forgery below is deterministic, so each message is
    forged once: the last message and its forgery stay in a one-slot cache.
    The slot holds the message itself, so its id cannot be reused while
    cached, and every recipient gets the same forged object, which is then
    encoded once."""

    def __init__(self, runtime: "NodeRuntime", behaviors: Iterable[str]):
        self.runtime = runtime
        # an unknown name raises ConfigInvalid
        self.behaviors = {ByzantineBehavior(b) for b in behaviors}
        self._last: Optional[tuple[object, object]] = None

    def transform(self, dst: int, msg) -> list[tuple[int, object]]:
        behaviors = self.behaviors
        if _SILENT in behaviors and not isinstance(msg, (Ping, Pong)):
            return []
        if _EQUIVOCATE in behaviors and isinstance(msg, PreOrder):
            # the pivot alone gets the true batch
            if dst == msg.booth.pivot_id:
                return [(dst, msg)]
            return [(dst, self._once(msg, self._equivocate))]
        if _TAMPER in behaviors and isinstance(msg, PreOrder):
            return [(dst, self._once(msg, _tamper))]
        if _FORGE in behaviors and isinstance(msg, (OrderMsg, CommitMsg)):
            return [(dst, self._once(msg, self._forge_quorum))]
        if (_MUTATE_LIFETIME in behaviors and isinstance(msg, GossipMsg)
                and msg.traverse):
            return [(dst, self._once(msg, self._inflate_lifetime))]
        return [(dst, msg)]

    def _once(self, msg, forge: Callable):
        if self._last is None or self._last[0] is not msg:
            self._last = (msg, forge(msg))
        return self._last[1]

    def _equivocate(self, msg: PreOrder) -> PreOrder:
        """Two-branch split under one ordering id: the pivot alone gets the
        true batch, every other member this forged one. The forged branch
        can reach a plain countersignature count, but never one that
        includes the pivot; the true branch has the pivot and nobody
        else."""
        forged = _flip_first_byte(msg.batch)
        digest = order_cert_digest(msg.ordering_id, forged.batch_hash,
                                   msg.booth_hash)
        return replace(msg, batch=forged, batch_hash=forged.batch_hash,
                       proposer_partial=make_partial(self.runtime.key, digest))

    def _forge_quorum(self, msg):
        """Move the bit of the last signer who is not the pivot to the
        proposer's own: still 2f signers, the pivot among them, but one of
        them the proposer, which no validator's signature stands behind."""
        ctx = self.runtime.proposers[msg.instance_id].ctx
        booth_hash = (msg.booth_hash if isinstance(msg, CommitMsg)
                      else ctx.log.get(msg.ordering_id).booth_hash)
        booth = ctx.ledger.booth_table[booth_hash]
        members = booth.member_ids
        moved = max(s for s in msg.cert.signers(members) if s != booth.pivot_id)
        raw = bytearray(msg.cert.sig_bytes)
        for member in (moved, booth.proposer_id):
            idx = members.index(member)
            raw[idx // 8] ^= 1 << (idx % 8)
        return replace(msg, cert=AggregateSignature(bytes(raw)))

    def _inflate_lifetime(self, msg: GossipMsg) -> GossipMsg:
        last = msg.traverse[-1]
        if last.node_id != self.runtime.node_id:
            return msg
        lifted = last.lifetime + 1
        hop = TraverseHop(
            lifetime=lifted,
            sig=self.runtime.key.sign(
                traverse_digest(msg.commit.commit_hash(), lifted)),
            node_id=last.node_id)
        return replace(msg, traverse=msg.traverse[:-1] + (hop,))


def _tamper(msg: PreOrder) -> PreOrder:
    return replace(msg, batch=_flip_first_byte(msg.batch))


def _flip_first_byte(batch: DataBatch) -> DataBatch:
    """The first byte of the first payload inverted, in the packed bytes:
    5 of list header, then 19 of pair framing ending in the payload length.
    An empty payload has its origin seq's low byte (18) inverted instead."""
    packed = bytearray(batch.packed)
    packed[24 if any(packed[20:24]) else 18] ^= 0xFF
    return DataBatch._of(bytes(packed), batch.count)


class NodeRuntime:
    def __init__(self, node_id: int, env: NodeEnv, registry: KeyService,
                 key: SigningKey, config: ProtocolConfig, delta_us: int,
                 storage: Optional[StorageMaster] = None,
                 gossip_peers: Optional[list[int]] = None,
                 gossip_lifetime: int = 0,
                 byzantine: Sequence[str] = ()):
        self.node_id = node_id
        self.env = env
        self.registry = registry
        self.key = key
        self.config = config
        self.delta_us = delta_us
        self.storage = storage
        self.proposers: dict[int, ProposerInstance] = {}
        self.validators: dict[int, ValidatorInstance] = {}
        self.pingers: dict[int, PingDaemon] = {}
        self.logs: dict[int, TotalOrderLog] = {}
        self.ledgers: dict[int, Ledger] = {}
        self.actor = ByzantineActor(self, byzantine) if byzantine else None
        self.gossip: Optional[GossipAgent] = None
        if gossip_lifetime > 0:
            self.gossip = GossipAgent(
                env=env, registry=registry, key=key,
                peers=gossip_peers or [], lifetime=gossip_lifetime,
                storage=storage, send=self._send_gossip)
        env.net.register(node_id, self.handle)

    # -- transport ---------------------------------------------------------

    def send_msg(self, dst: int, msg, category: Category,
                 instance_key: object) -> None:
        if self.actor is None:
            self.env.net.send(self.node_id, dst, msg.encode(), category,
                              instance_key)
            return
        for to, out in self.actor.transform(dst, msg):
            self.env.net.send(self.node_id, to, out.encode(), category,
                              instance_key)

    def _send_gossip(self, dst: int, msg) -> None:
        category = Category.ACK if isinstance(msg, GossipAck) else Category.GOSSIP
        self.send_msg(dst, msg, category, ("gossip", msg.instance_id))

    # -- instance wiring ---------------------------------------------------

    def _context(self, instance_id: int, **role) -> InstanceContext:
        """A context for one engine side of an instance. Both sides share
        the node's log and ledger of the instance, made on first use."""
        log = self.logs.get(instance_id)
        if log is None:
            log = self.logs[instance_id] = TotalOrderLog()
            self.ledgers[instance_id] = Ledger(self.node_id, self.delta_us)
        return InstanceContext(
            instance_id=instance_id, node_id=self.node_id, env=self.env,
            registry=self.registry, key=self.key, config=self.config,
            delta_us=self.delta_us,
            send=lambda dst, msg, cat, sub: self.send_msg(
                dst, msg, cat, (instance_id, sub)),
            log=log, ledger=self.ledgers[instance_id],
            metrics=MetricSink(), gossip=self.gossip,
            **role)

    def add_proposer(self, instance_id: int, mmu: MembershipUnit) -> ProposerInstance:
        ctx = self._context(instance_id, mmu=mmu)
        inst = ProposerInstance(
            ctx=ctx, ordering=OrderingCoordinator(ctx),
            consensus=ConsensusCoordinator(ctx))
        self.proposers[instance_id] = inst
        pinger = PingDaemon(self, mmu, instance_id)
        self.pingers[instance_id] = pinger
        self.env.net.on_availability_change(
            lambda node, up, _now: self._churn_notice(mmu, node, up))
        return inst

    def _churn_notice(self, mmu: MembershipUnit, node: int, up: bool) -> None:
        if node in mmu.pool:
            mmu.mark_availability(node, up)

    def start(self) -> None:
        for instance_id, inst in self.proposers.items():
            inst.consensus.start()
            self.pingers[instance_id].start()

    def _validator(self, msg) -> ValidatorInstance:
        inst = self.validators.get(msg.instance_id)
        if inst is None:
            ctx = self._context(msg.instance_id)
            inst = ValidatorInstance(ctx=ctx, ordering=ValidatorOrdering(ctx),
                                     consensus=ValidatorConsensus(ctx))
            self.validators[msg.instance_id] = inst
        return inst

    def _proposer(self, msg) -> Optional[ProposerInstance]:
        """The proposer instance a reply is for, or None (counted dropped)."""
        prop = self.proposers.get(msg.instance_id)
        if prop is None:
            self.env.drops[self.node_id, RejectReason.UNKNOWN_INSTANCE] += 1
        return prop

    def close(self) -> None:
        """Drop the callbacks wired between this runtime's parts: the
        engines' sends, the workload's capacity hook, the membership
        units' listeners, the pingers, the byzantine actor and the gossip
        agent's send. Each closes a reference cycle, so without this a
        finished run lingers until the cyclic garbage collector finds it.
        What the report and the audits read (logs, ledgers, engines)
        stays."""
        for inst in (*self.proposers.values(), *self.validators.values()):
            inst.ctx.send = None
        for inst in self.proposers.values():
            inst.ordering.on_capacity = None
            inst.ctx.mmu.drop_listeners()
        self.pingers.clear()
        self.actor = None
        if self.gossip is not None:
            self.gossip.send = None

    # -- dispatch ----------------------------------------------------------

    def handle(self, src: int, raw: bytes, category: Category) -> None:
        try:
            msg = decode_message(raw)
        except ValueError:
            self.env.drops[self.node_id, RejectReason.MALFORMED] += 1
            return
        route = _ROUTES.get(type(msg))
        if route is None:
            self.env.drops[self.node_id, RejectReason.MALFORMED] += 1
        else:
            route(self, src, msg)

    def _answer_ping(self, src: int, msg: Ping) -> None:
        pong = Pong(instance_id=msg.instance_id, sender=self.node_id,
                    seq=msg.seq, sent_at_us=msg.sent_at_us)
        self.send_msg(src, pong, Category.PING, None)


# How `NodeRuntime.handle` acts on a message (`m`, from `s`), by its class.
# Each route looks its method up when the message arrives, so a method
# patched on its class is the one called.
_ROUTES = {
    Ping: NodeRuntime._answer_ping,
    Pong: lambda rt, s, m: (p := rt.pingers.get(m.instance_id)) and p.on_pong(s, m),
    GossipMsg: lambda rt, s, m: rt.gossip and rt.gossip.handle_gossip(s, m),
    GossipAck: lambda rt, s, m: rt.gossip and rt.gossip.handle_ack(s, m),
    OrderReply: lambda rt, s, m: (
        (p := rt._proposer(m)) and p.ordering.handle_reply(s, m)),
    CommitReply: lambda rt, s, m: (
        (p := rt._proposer(m)) and p.consensus.handle_reply(s, m)),
    PreOrder: lambda rt, s, m: rt._validator(m).ordering.handle_pre_order(s, m),
    OrderMsg: lambda rt, s, m: rt._validator(m).ordering.handle_order(s, m),
    PreCommitSeen: lambda rt, s, m: rt._validator(m).consensus.handle_seen(s, m),
    PreCommitUnseen: lambda rt, s, m: rt._validator(m).consensus.handle_unseen(s, m),
    CommitMsg: lambda rt, s, m: rt._validator(m).consensus.handle_commit(s, m),
}
