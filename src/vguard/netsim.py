"""Deterministic network and CPU simulation.

Reference mode is a single-threaded discrete-event loop: every delivery and
timer is a heap event ordered by (time, insertion sequence), so equal seeds
replay byte-identically. Each node is modeled as a single-server CPU queue:
a handler starts at max(arrival, busy_until) and charges a service time
derived from counted work (signatures, hashing, wire bytes); its outbound
sends and timers take effect at completion. Dissemination traffic (gossip
and acks) runs on a separate lane with zero CPU charge and its own RNG
streams, so enabling gossip cannot perturb the consensus path.

An invocation that finds its node's CPU busy joins the node's run queue, a
FIFO served by at most one heap "wake" event at the node's busy_until; so
each delivery or timer costs one heap event however long it waits. The
order is the one in which every waiting invocation would re-enter the heap
at busy_until on its own:

- An event that fires when busy_until <= now runs at once, even while
  others wait; the pending wake then finds the CPU busy again and moves to
  the new busy_until. Whatever arrives at that same instant, behind the
  event that ran, goes in front of the older waiters.
- When the wake runs the head of the queue, the head's sends and timers are
  scheduled first and only then is the wake pushed at the new busy_until,
  so a 0-delay timer set by the head runs ahead of the queue.
- If the node is down when the wake fires, every waiting invocation is
  dropped.

Fault injection: per-message drops and duplicates, optional per-link FIFO,
node churn (down nodes neither send nor receive), a global stabilization
time after which delays clamp to a bound and losses stop, and Byzantine
behavior registration consumed by the node runtime.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigInvalid, UnknownEndpoint


class Category(str, Enum):
    """Message classes for counters, cost lanes, and RNG isolation."""

    ORDERING = "ordering"
    CONSENSUS = "consensus"
    CONTROL = "control"
    PING = "ping"
    GOSSIP = "gossip"
    ACK = "ack"

    def __str__(self) -> str:
        return self.value


# Categories that bypass the CPU queue and use the auxiliary RNG lane.
_AUX = {Category.GOSSIP, Category.ACK}
_PING = {Category.PING}
# Counter and tally keys, looked up rather than formatted per message.
_NAMES = {category: category.value for category in Category}


@dataclass(frozen=True)
class CostModel:
    """Service-time coefficients, all in milliseconds.

    The quadratic wire term models allocation and copy pressure on large
    payloads; it is what eventually makes very large batches counter-
    productive, matching observed batching behavior.
    """

    base_ms: float = 0.02
    sign_ms: float = 0.045
    verify_ms: float = 0.085
    hash_byte_ms: float = 3.0e-6
    wire_byte_ms: float = 2.0e-6
    wire_byte_quad_ms: float = 2.0e-9

    def wire_cost(self, size: int) -> float:
        return size * self.wire_byte_ms + size * size * self.wire_byte_quad_ms


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    delay_mean_ms: float = 1.0
    delay_sd_ms: float = 0.2
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder: bool = True
    gst_ms: Optional[float] = None
    gst_bound_ms: float = 20.0
    bandwidth_bytes_per_ms: Optional[float] = 400_000.0
    cost: CostModel = field(default_factory=CostModel)
    trace: bool = False

    def __post_init__(self):
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigInvalid("drop_rate must be in [0, 1)")
        if not 0.0 <= self.dup_rate < 1.0:
            raise ConfigInvalid("dup_rate must be in [0, 1)")
        if self.delay_mean_ms < 0 or self.delay_sd_ms < 0:
            raise ConfigInvalid("delay parameters must be non-negative")

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "delay_mean_ms": self.delay_mean_ms,
            "delay_sd_ms": self.delay_sd_ms,
            "drop_rate": self.drop_rate,
            "dup_rate": self.dup_rate,
            "reorder": self.reorder,
            "gst_ms": self.gst_ms,
            "gst_bound_ms": self.gst_bound_ms,
            "bandwidth_bytes_per_ms": self.bandwidth_bytes_per_ms,
            "trace": self.trace,
        }
        out["cost"] = {k: getattr(self.cost, k) for k in (
            "base_ms", "sign_ms", "verify_ms", "hash_byte_ms",
            "wire_byte_ms", "wire_byte_quad_ms")}
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "SimConfig":
        obj = dict(obj)
        cost = CostModel(**obj.pop("cost", {}))
        return cls(cost=cost, **obj)


class Timer:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """Priority queue of timed callbacks; ties break by insertion order."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Timer, Callable[[], None]]] = []
        self._seq = itertools.count()

    def at(self, when_ms: float, fn: Callable[[], None]) -> Timer:
        if when_ms < self.now:
            when_ms = self.now
        timer = Timer()
        heapq.heappush(self._heap, (when_ms, next(self._seq), timer, fn))
        return timer

    def after(self, delay_ms: float, fn: Callable[[], None]) -> Timer:
        return self.at(self.now + max(delay_ms, 0.0), fn)

    def run_until(self, until_ms: float) -> None:
        while self._heap and self._heap[0][0] <= until_ms:
            when, _, timer, fn = heapq.heappop(self._heap)
            self.now = when
            if not timer.cancelled:
                fn()
        self.now = max(self.now, until_ms)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


class CostMeter:
    """Counts billable work inside one handler invocation."""

    __slots__ = ("signs", "verifies", "hashed_bytes", "extra_ms")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.signs = 0
        self.verifies = 0
        self.hashed_bytes = 0
        self.extra_ms = 0.0

    def sign(self, n: int = 1) -> None:
        self.signs += n

    def verify(self, n: int = 1) -> None:
        self.verifies += n

    def hash_bytes(self, n: int) -> None:
        self.hashed_bytes += n

    def charge_ms(self, ms: float) -> None:
        self.extra_ms += ms

    def drain(self, model: CostModel) -> float:
        total = (self.signs * model.sign_ms
                 + self.verifies * model.verify_ms
                 + self.hashed_bytes * model.hash_byte_ms
                 + self.extra_ms)
        self.reset()
        return total


@dataclass
class ChurnEvent:
    at_ms: float
    node_id: int
    up: bool

    @classmethod
    def from_dict(cls, obj: dict) -> "ChurnEvent":
        status = obj.get("status", obj.get("up"))
        if isinstance(status, str):
            up = status.lower() in ("up", "true", "1")
        else:
            up = bool(status)
        return cls(at_ms=float(obj["at_ms"]), node_id=int(obj["node_id"]), up=up)


def load_churn_file(path) -> list[ChurnEvent]:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [ChurnEvent.from_dict(obj) for obj in data]


class ByzantineBehavior(str, Enum):
    SILENT = "silent"
    TAMPER_PAYLOAD = "tamper_payload"
    FORGE_QUORUM = "forge_quorum"
    EQUIVOCATE_ORDERING_ID = "equivocate_ordering_id"
    MUTATE_GOSSIP_LIFETIME = "mutate_gossip_lifetime"

    def __str__(self) -> str:
        return self.value


def load_byzantine_file(path) -> dict[int, list[ByzantineBehavior]]:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out: dict[int, list[ByzantineBehavior]] = {}
    for obj in data:
        out[int(obj["node_id"])] = [ByzantineBehavior(b) for b in obj["behaviors"]]
    return out


class _RunQueue:
    """Invocations waiting behind one node's busy CPU, as (fn, preload_ms).

    `wake_at` is the time of the node's one pending wake event, or None
    when nothing waits. `ahead` counts the invocations that arrived while
    that wake was due but another invocation had run first; they queue in
    front of the older waiters."""

    __slots__ = ("waiting", "wake_at", "ahead")

    def __init__(self):
        self.waiting: deque[tuple[Callable[[], None], float]] = deque()
        self.wake_at: Optional[float] = None
        self.ahead = 0


class _Lane:
    """Per-group RNG pair: one stream for delays, one for loss faults."""

    def __init__(self, seed_seq: np.random.SeedSequence):
        delay_seed, fault_seed = seed_seq.spawn(2)
        self.delays = np.random.Generator(np.random.PCG64(delay_seed))
        self.faults = np.random.Generator(np.random.PCG64(fault_seed))


class Network:
    """Reference-mode transport plus node CPU accounting."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.sched = Scheduler()
        root = np.random.SeedSequence(config.seed)
        proto_seq, ping_seq, aux_seq, _ = root.spawn(4)
        self._lanes = {
            "protocol": _Lane(proto_seq),
            "ping": _Lane(ping_seq),
            "aux": _Lane(aux_seq),
        }
        self._lane_of = {category: self._lanes[
            "aux" if category in _AUX else "ping" if category in _PING
            else "protocol"] for category in Category}
        self._tracing = config.trace
        self._handlers: dict[int, Callable[[int, bytes, Category], None]] = {}
        self._up: dict[int, bool] = {}
        self._busy: dict[int, float] = {}
        self._queues: dict[int, _RunQueue] = {}
        self._meters: dict[int, CostMeter] = {}
        self._last_arrival: dict[tuple[int, int], float] = {}
        self._availability_listeners: list[Callable[[int, bool, float], None]] = []
        self._byzantine: dict[int, list[ByzantineBehavior]] = {}
        self.counters: dict[tuple[str, object], int] = {}
        self.delivered: dict[str, int] = {}
        self.trace: list[dict] = []
        # pending effects of the handler currently executing, per node
        self._active_node: Optional[int] = None
        self._deferred_sends: list[tuple[int, int, bytes, Category, object]] = []
        self._deferred_timers: list[tuple[float, Callable[[], None], Timer]] = []

    # -- membership of the simulation ------------------------------------

    def register(self, node_id: int,
                 handler: Callable[[int, bytes, Category], None]) -> None:
        self._handlers[node_id] = handler
        self._up.setdefault(node_id, True)
        self._busy.setdefault(node_id, 0.0)
        self._queues.setdefault(node_id, _RunQueue())
        self._meters[node_id] = CostMeter()

    def is_up(self, node_id: int) -> bool:
        return self._up.get(node_id, False)

    def node_ids(self) -> list[int]:
        return sorted(self._handlers)

    def meter(self, node_id: int) -> CostMeter:
        return self._meters[node_id]

    def on_availability_change(self, fn: Callable[[int, bool, float], None]) -> None:
        self._availability_listeners.append(fn)

    def set_up(self, node_id: int, up: bool) -> None:
        if self._up.get(node_id) == up:
            return
        self._up[node_id] = up
        if self._tracing:
            self._trace("churn", node_id, node_id, None, 0, None, up=up)
        for fn in list(self._availability_listeners):
            fn(node_id, up, self.sched.now)

    def inject_churn(self, events: Iterable[ChurnEvent]) -> None:
        for event in events:
            self.sched.at(event.at_ms,
                          partial(self.set_up, event.node_id, event.up))

    def wrap_byzantine(self, node_id: int,
                       behaviors: Iterable[ByzantineBehavior | str]) -> None:
        self._byzantine[node_id] = [ByzantineBehavior(b) for b in behaviors]

    def byzantine_behaviors(self, node_id: int) -> list[ByzantineBehavior]:
        return self._byzantine.get(node_id, [])

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, payload: bytes, category: Category,
             instance_key: object = None) -> None:
        """Queue a message. If called from inside a handler invocation on
        src, the send takes effect when that handler's service completes."""
        if dst not in self._handlers:
            raise UnknownEndpoint(f"no endpoint for node {dst}")
        if self._active_node == src:
            self._deferred_sends.append((src, dst, payload, category, instance_key))
        else:
            self._dispatch_send(self.sched.now, src, dst, payload, category,
                                instance_key)

    def _dispatch_send(self, at_ms: float, src: int, dst: int, payload: bytes,
                       category: Category, instance_key: object) -> None:
        tracing = self._tracing
        if not self._up.get(src, False):
            if tracing:
                self._trace("send_suppressed", src, dst, category,
                            len(payload), instance_key)
            return
        self._count(category, instance_key)
        if tracing:
            self._trace("send", src, dst, category, len(payload), instance_key)
        config = self.config
        lane = self._lane_of[category]
        post_gst = (config.gst_ms is not None and at_ms >= config.gst_ms)
        if not post_gst:
            if config.drop_rate and lane.faults.random() < config.drop_rate:
                if tracing:
                    self._trace("drop", src, dst, category, len(payload),
                                instance_key)
                return
        arrivals = [self._sample_arrival(at_ms, lane, len(payload), post_gst)]
        if not post_gst and config.dup_rate and \
                lane.faults.random() < config.dup_rate:
            arrivals.append(self._sample_arrival(at_ms, lane, len(payload), post_gst))
            if tracing:
                self._trace("dup", src, dst, category, len(payload),
                            instance_key)
        for arrival in arrivals:
            if not config.reorder:
                key = (src, dst)
                arrival = max(arrival, self._last_arrival.get(key, 0.0))
                self._last_arrival[key] = arrival
            self.sched.at(arrival, partial(self._deliver, src, dst, payload,
                                           category, instance_key))

    def _sample_arrival(self, at_ms: float, lane: _Lane, size: int,
                        post_gst: bool) -> float:
        delay = lane.delays.normal(self.config.delay_mean_ms, self.config.delay_sd_ms) \
            if self.config.delay_sd_ms > 0 else self.config.delay_mean_ms
        delay = max(float(delay), 0.0)
        if post_gst:
            delay = min(delay, self.config.gst_bound_ms)
        if self.config.bandwidth_bytes_per_ms:
            delay += size / self.config.bandwidth_bytes_per_ms
        return at_ms + delay

    # -- delivery and CPU accounting --------------------------------------

    def _deliver(self, src: int, dst: int, payload: bytes, category: Category,
                 instance_key: object) -> None:
        if not self._up.get(dst, False):
            if self._tracing:
                self._trace("drop_down", src, dst, category, len(payload),
                            instance_key)
            return
        handler = self._handlers[dst]
        if self._tracing:
            self._trace("deliver", src, dst, category, len(payload),
                        instance_key)
        name = _NAMES[category]
        self.delivered[name] = self.delivered.get(name, 0) + 1
        if category in _AUX:
            # dissemination lane: no CPU contention
            handler(src, payload, category)
            return
        wire_cost = self.config.cost.wire_cost(len(payload))
        self._invoke(dst, partial(handler, src, payload, category), wire_cost)

    def _invoke(self, node_id: int, fn: Callable[[], None],
                preload_ms: float = 0.0) -> None:
        """Run fn under the node's CPU model, or queue it behind the busy
        CPU until the node's wake event hands it back here."""
        busy = self._busy.get(node_id, 0.0)
        if busy > self.sched.now:
            queue = self._queues[node_id]
            if queue.wake_at is None:
                queue.wake_at = busy
                self.sched.at(busy, partial(self._wake, node_id))
                queue.waiting.append((fn, preload_ms))
            elif queue.wake_at < busy:
                # due at the wake's instant, behind an invocation that ran
                # at once: in arrival order, in front of the older waiters
                queue.waiting.insert(queue.ahead, (fn, preload_ms))
                queue.ahead += 1
            else:
                queue.waiting.append((fn, preload_ms))
            return
        if not self._up.get(node_id, False):
            return
        meter = self._meters[node_id]
        meter.reset()
        prev_active = self._active_node
        prev_sends, prev_timers = self._deferred_sends, self._deferred_timers
        self._active_node = node_id
        self._deferred_sends, self._deferred_timers = [], []
        try:
            fn()
        finally:
            sends, timers = self._deferred_sends, self._deferred_timers
            self._active_node = prev_active
            self._deferred_sends, self._deferred_timers = prev_sends, prev_timers
        wire_out = sum(self.config.cost.wire_cost(len(p))
                       for _, _, p, c, _ in sends if c not in _AUX)
        cost = self.config.cost.base_ms + preload_ms + wire_out \
            + meter.drain(self.config.cost)
        done = self.sched.now + cost
        self._busy[node_id] = done
        for src, dst, payload, category, key in sends:
            self._dispatch_send(done, src, dst, payload, category, key)
        for delay, timer_fn, timer in timers:
            self._schedule_at(node_id, done + delay, timer_fn, timer)

    def _wake(self, node_id: int) -> None:
        """The node's CPU was due to be free: hand the head of its run queue
        to `_invoke`, then wait for the next free CPU if more are queued."""
        queue = self._queues[node_id]
        busy = self._busy[node_id]
        queue.ahead = 0
        if busy <= self.sched.now:
            if not self._up.get(node_id, False):
                queue.waiting.clear()
                queue.wake_at = None
                return
            fn, preload_ms = queue.waiting.popleft()
            self._invoke(node_id, fn, preload_ms)
            if not queue.waiting:
                queue.wake_at = None
                return
            busy = self._busy[node_id]
        queue.wake_at = busy
        self.sched.at(busy, partial(self._wake, node_id))

    # -- timers ------------------------------------------------------------

    def schedule(self, node_id: int, delay_ms: float,
                 fn: Callable[[], None]) -> Timer:
        """One-shot timer owned by a node; skipped if the node is down when
        it fires, queued behind the node's CPU like any other event."""
        if self._active_node == node_id:
            timer = Timer()
            self._deferred_timers.append((max(delay_ms, 0.0), fn, timer))
            return timer
        timer = Timer()
        self._schedule_at(node_id, self.sched.now + max(delay_ms, 0.0), fn, timer)
        return timer

    def _schedule_at(self, node_id: int, when_ms: float, fn: Callable[[], None],
                     timer: Timer) -> None:
        self.sched.at(when_ms, partial(self._fire, node_id, fn, timer))

    def _fire(self, node_id: int, fn: Callable[[], None], timer: Timer) -> None:
        if not timer.cancelled:
            self._invoke(node_id, fn)

    def every(self, node_id: int, period_ms: float, fn: Callable[[], None],
              start_at_ms: Optional[float] = None) -> Timer:
        """Recurring timer: re-arms regardless of node state, runs the body
        only while the node is up."""
        timer = Timer()
        first = self.sched.now + period_ms if start_at_ms is None else start_at_ms
        self.sched.at(first, partial(self._tick, node_id, period_ms, fn, timer,
                                     first))
        return timer

    def _tick(self, node_id: int, period_ms: float, fn: Callable[[], None],
              timer: Timer, when: float) -> None:
        if timer.cancelled:
            return
        if self._up.get(node_id, False):
            self._invoke(node_id, fn)
        when += period_ms
        self.sched.at(when, partial(self._tick, node_id, period_ms, fn, timer,
                                    when))

    # -- bookkeeping -------------------------------------------------------

    def _count(self, category: Category, instance_key: object) -> None:
        key = (_NAMES[category], instance_key)
        self.counters[key] = self.counters.get(key, 0) + 1

    def messages_for(self, category: Category, instance_key: object) -> int:
        return self.counters.get((_NAMES[category], instance_key), 0)

    def totals_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (category, _), count in self.counters.items():
            out[category] = out.get(category, 0) + count
        return out

    def instance_counts(self, category: Category) -> dict[object, int]:
        out: dict[object, int] = {}
        name = _NAMES[category]
        for (cat, key), count in self.counters.items():
            if cat == name and key is not None:
                out[key] = out.get(key, 0) + count
        return out

    def _trace(self, kind: str, src: int, dst: int, category: Optional[Category],
               size: int, instance_key: object, **extra) -> None:
        event = {"t": round(self.sched.now, 6), "kind": kind, "src": src,
                 "dst": dst, "category": str(category) if category else None,
                 "size": size, "key": _key_repr(instance_key)}
        event.update(extra)
        self.trace.append(event)

    # -- driving the simulation -------------------------------------------

    def run_until(self, until_ms: float) -> None:
        self.sched.run_until(until_ms)

    def close(self) -> None:
        """End the simulation: drop pending events, run queues, handlers and
        listeners. They close the reference cycles between the network and
        the nodes, so without this a finished run lingers until the cyclic
        garbage collector finds it. Counters, delivery tallies and the trace
        stay."""
        self.sched.clear()
        self._queues.clear()
        self._handlers.clear()
        self._availability_listeners.clear()

    @property
    def now(self) -> float:
        return self.sched.now


def _key_repr(instance_key: object):
    if instance_key is None:
        return None
    if isinstance(instance_key, tuple):
        return list(instance_key)
    return instance_key


class NodeEnv:
    """A node's bound view of the network: what engines are allowed to use."""

    __slots__ = ("net", "node_id")

    def __init__(self, net: Network, node_id: int):
        self.net = net
        self.node_id = node_id

    def now_ms(self) -> float:
        return self.net.sched.now

    def now_us(self) -> int:
        return int(round(self.net.sched.now * 1000.0))

    @property
    def meter(self) -> CostMeter:
        return self.net.meter(self.node_id)

    def send(self, dst: int, payload: bytes, category: Category,
             instance_key: object = None) -> None:
        self.net.send(self.node_id, dst, payload, category, instance_key)

    def after(self, delay_ms: float, fn: Callable[[], None]) -> Timer:
        return self.net.schedule(self.node_id, delay_ms, fn)

    def every(self, period_ms: float, fn: Callable[[], None],
              start_at_ms: Optional[float] = None) -> Timer:
        return self.net.every(self.node_id, period_ms, fn, start_at_ms)
