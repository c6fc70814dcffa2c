"""Node runtime: one process worth of protocol state.

A runtime owns a node's signing key and only routes: it hands each
decoded message to its engine, and sends each message on the lane and
under the count key of its class's row in `_ROUTES`, so no engine names
a lane. Proposer instances are declared up front (membership unit, which
runs their liveness probes, workload intake, window clock); validator
state is created lazily the first time an instance's traffic arrives,
since any pool member can be drafted into a booth at any time.

Byzantine nodes run the same runtime with a transform bolted onto the
send path, so their misbehavior is subject to exactly the checks honest
receivers apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
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
    send: Callable[[int, object], None]   # the runtime's `send_msg`
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
        self.logs: dict[int, TotalOrderLog] = {}
        self.ledgers: dict[int, Ledger] = {}
        self.actor = ByzantineActor(self, byzantine) if byzantine else None
        self.gossip: Optional[GossipAgent] = None
        if gossip_lifetime > 0:
            self.gossip = GossipAgent(
                env=env, registry=registry, key=key,
                peers=gossip_peers or [], lifetime=gossip_lifetime,
                storage=storage, send=self.send_msg)
        env.net.register(node_id, self.handle)

    # -- transport ---------------------------------------------------------

    def send_msg(self, dst: int, msg) -> None:
        """Send `msg` on the lane and under the count key of its class;
        a byzantine node's actor may rewrite it first."""
        _, category, key = _ROUTES[type(msg)]
        if self.actor is None:
            self.env.net.send(self.node_id, dst, msg.encode(), category,
                              key(msg))
            return
        instance_key = key(msg)
        for to, out in self.actor.transform(dst, msg):
            self.env.net.send(self.node_id, to, out.encode(), category,
                              instance_key)

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
            delta_us=self.delta_us, send=self.send_msg, log=log,
            ledger=self.ledgers[instance_id], metrics=MetricSink(),
            gossip=self.gossip, **role)

    def add_proposer(self, instance_id: int, mmu: MembershipUnit) -> ProposerInstance:
        ctx = self._context(instance_id, mmu=mmu)
        inst = ProposerInstance(
            ctx=ctx, ordering=OrderingCoordinator(ctx),
            consensus=ConsensusCoordinator(ctx))
        self.proposers[instance_id] = inst
        return inst

    def start(self) -> None:
        for inst in self.proposers.values():
            inst.consensus.start()
            inst.ctx.mmu.start_probes(self.send_msg)

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
        units' listeners, the byzantine actor and the gossip agent's
        send. Each closes a reference cycle, so without this a
        finished run lingers until the cyclic garbage collector finds it.
        What the report and the audits read (logs, ledgers, engines)
        stays."""
        for inst in (*self.proposers.values(), *self.validators.values()):
            inst.ctx.send = None
        for inst in self.proposers.values():
            inst.ordering.on_capacity = None
            inst.ctx.mmu.drop_listeners()
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
            route[0](self, src, msg)

    def _answer_ping(self, src: int, msg: Ping) -> None:
        self.send_msg(src, Pong(msg.instance_id, self.node_id, msg.seq,
                                msg.sent_at_us))


# Each message class's row: how `NodeRuntime.handle` acts on it (`m`, from
# `s`; the method is looked up as it arrives, so a patched one is called),
# then the lane and the count key `send_msg` sends it under: its round, its
# instance's gossip, or none for a liveness probe.
_ORDERING = Category.ORDERING, attrgetter("instance_id", "ordering_id")
_CONSENSUS = Category.CONSENSUS, attrgetter("instance_id", "window_start_us")
_PROBE = Category.PING, lambda m: None
_gossip = lambda m: ("gossip", m.instance_id)
_ROUTES = {
    Ping: (NodeRuntime._answer_ping, *_PROBE),
    Pong: (lambda rt, s, m: (p := rt.proposers.get(m.instance_id))
           and p.ctx.mmu.on_pong(s, m), *_PROBE),
    GossipMsg: (lambda rt, s, m: rt.gossip and rt.gossip.handle_gossip(s, m),
                Category.GOSSIP, _gossip),
    GossipAck: (lambda rt, s, m: rt.gossip and rt.gossip.handle_ack(s, m),
                Category.ACK, _gossip),
    OrderReply: (lambda rt, s, m: (p := rt._proposer(m))
                 and p.ordering.handle_reply(s, m), *_ORDERING),
    CommitReply: (lambda rt, s, m: (p := rt._proposer(m))
                  and p.consensus.handle_reply(s, m), *_CONSENSUS),
    PreOrder: (lambda rt, s, m: rt._validator(m).ordering.handle_pre_order(s, m),
               *_ORDERING),
    OrderMsg: (lambda rt, s, m: rt._validator(m).ordering.handle_order(s, m),
               *_ORDERING),
    PreCommitSeen: (lambda rt, s, m: rt._validator(m).consensus.handle_seen(s, m),
                    *_CONSENSUS),
    PreCommitUnseen: (lambda rt, s, m:
                      rt._validator(m).consensus.handle_unseen(s, m), *_CONSENSUS),
    CommitMsg: (lambda rt, s, m: rt._validator(m).consensus.handle_commit(s, m),
                *_CONSENSUS),
}
