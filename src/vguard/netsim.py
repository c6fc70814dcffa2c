"""Deterministic network and CPU simulation.

Reference mode is a single-threaded discrete-event loop: every delivery and
timer is a heap entry (time, insertion sequence, callback), so equal seeds
replay byte-identically; only node timers can be cancelled, and they carry
their own `Timer`. Each node is modeled as a single-server CPU queue: a
handler starts at max(arrival, busy_until) and charges a service time
derived from counted work (signatures, hashing, wire bytes); its outbound
sends and timers take effect at completion. A send's wire cost is computed
once: the sender's charge and the receiver's preload are that one value.
Dissemination traffic (gossip and acks) runs on a separate lane with zero
CPU charge and its own RNG streams, so enabling gossip cannot perturb the
consensus path.

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
time after which delays clamp to a bound and losses stop, and the names of
the Byzantine behaviors that the node runtime acts out. Each category maps
to one lane tuple, which `_dispatch_send` and `_deliver` each read once:
its counter name, whether it is the dissemination lane, and the delay and
fault streams of its RNG group (protocol, ping or dissemination). Each
stream serves one distribution, so it is drawn `LANE_BLOCK` values at a
time: `Generator.normal(m, s, size=n)` and `random(size=n)` yield the
values of n scalar calls, in the same order.

One per-message path serves traced and untraced runs. It keeps the hook
points that the benchmark's tracer and the golden probes patch by name, or
their work would be hidden from them: `Network.send`, `_deliver`,
`run_until`, `_invoke(node_id, fn, preload_ms)` called through `self` with
its `_busy` and `_up` dicts, and `Scheduler.at` for every heap event.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from numbers import Integral
from operator import itemgetter
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import BELOW_ONE, ConfigInvalid, UnknownEndpoint


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
_WIRE_COST = itemgetter(5)       # of a pending send; 0 on the aux lane


@dataclass(frozen=True)
class CostModel:
    """Service-time coefficients, all in milliseconds.

    Sending n bytes costs n * wire_byte_ms + n * n * wire_byte_quad_ms, and
    receiving them as much. The quadratic term models allocation and copy
    pressure on large payloads: it makes very large batches counter-
    productive, matching observed batching behavior."""

    base_ms: float = 0.02
    sign_ms: float = 0.045
    verify_ms: float = 0.085
    hash_byte_ms: float = 3.0e-6
    wire_byte_ms: float = 2.0e-6
    wire_byte_quad_ms: float = 2.0e-9


@dataclass(frozen=True)
class SimConfig:
    """The simulated network: delays, faults, bandwidth and costs."""

    seed: int = 0             # a run sets it from `RunSpec.seed`
    delay_mean_ms: float = 1.0
    delay_sd_ms: float = 0.2
    drop_rate: float = field(default=0.0, metadata=BELOW_ONE)
    dup_rate: float = field(default=0.0, metadata=BELOW_ONE)
    reorder: bool = True
    gst_ms: Optional[float] = None
    gst_bound_ms: float = 20.0
    bandwidth_bytes_per_ms: Optional[float] = 400_000.0
    cost: CostModel = field(default_factory=CostModel)
    trace: bool = False


class Timer:
    """What `schedule` and `every` return. Cancelling it stops every run of
    the callback not yet started, also one queued behind the busy CPU."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _TimerRun:
    """A timer's callback due to run, as `_invoke` takes it. (A timer that
    held its callback would close a cycle: engines hold their timers.)"""

    __slots__ = ("fn", "timer")

    def __init__(self, fn: Callable[[], None], timer: Timer):
        self.fn, self.timer = fn, timer

    def __call__(self) -> None:
        self.fn()


class Scheduler:
    """Priority queue of timed callbacks; ties break by insertion order."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._next_seq = itertools.count().__next__

    def at(self, when_ms: float, fn: Callable[[], None]) -> None:
        if when_ms < self.now:
            when_ms = self.now
        heappush(self._heap, (when_ms, self._next_seq(), fn))

    def run_until(self, until_ms: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until_ms:
            when, _, fn = heappop(heap)
            self.now = when
            fn()
        self.now = max(self.now, until_ms)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


class CostMeter:
    """Counts billable work inside one handler invocation."""

    __slots__ = ("signs", "verifies", "hashed_bytes")

    def __init__(self):
        self.signs = self.verifies = self.hashed_bytes = 0

    def sign(self, n: int = 1) -> None:
        self.signs += n

    def verify(self, n: int = 1) -> None:
        self.verifies += n

    def hash_bytes(self, n: int) -> None:
        self.hashed_bytes += n


@dataclass
class ChurnEvent:
    """One node going up or down at a simulated time."""

    at_ms: float
    node_id: int
    up: bool

    @classmethod
    def from_dict(cls, obj: dict) -> "ChurnEvent":
        """One schedule entry: `status` "up" or "down", or a boolean `up`."""
        status = obj.get("status", obj.get("up"))
        up = ({"up": True, "down": False}.get(status.lower())
              if isinstance(status, str) else status)
        if not isinstance(up, bool):
            raise ConfigInvalid(f'churn entry needs status "up" or "down": {obj}')
        try:
            return cls(at_ms=float(obj["at_ms"]),
                       node_id=_node_id(obj["node_id"]), up=up)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(
                f"churn entry needs a numeric at_ms and node_id: {obj}") from exc


def _node_id(value) -> int:
    """A schedule's node id: an integer, since a fraction or a bool names
    some other node once truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigInvalid(f"node_id must be an integer, got {value!r}")
    return int(value)


def _json_objects(data, what: str) -> list:
    if isinstance(data, list) and all(isinstance(o, dict) for o in data):
        return data
    raise ConfigInvalid(f"{what} must be a JSON list of objects")


def churn_events(data) -> tuple[ChurnEvent, ...]:
    return tuple(ChurnEvent.from_dict(obj)
                 for obj in _json_objects(data, "a churn schedule"))


class ByzantineBehavior(str, Enum):
    SILENT = "silent"
    TAMPER_PAYLOAD = "tamper_payload"
    FORGE_QUORUM = "forge_quorum"
    EQUIVOCATE_ORDERING_ID = "equivocate_ordering_id"
    MUTATE_GOSSIP_LIFETIME = "mutate_gossip_lifetime"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(b.value for b in cls)
        raise ConfigInvalid(f"unknown byzantine behavior {value!r}; known: {known}")


def byzantine_schedule(data) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """A JSON list of {node_id, behaviors} objects, or a map of node ids,
    as integers or their decimal text (JSON keys), to behavior lists, as
    `RunSpec.byzantine`: (node, behaviors) pairs in node order. A node
    named twice is refused, not overwritten by its last entry."""
    if isinstance(data, dict):
        data = [{"node_id": int(node) if str(node).isdecimal() else node,
                 "behaviors": behaviors} for node, behaviors in data.items()]
    out: dict[int, tuple[str, ...]] = {}
    for obj in _json_objects(data, "a byzantine schedule"):
        try:
            node = _node_id(obj["node_id"])
            behaviors = tuple(str(ByzantineBehavior(b))
                              for b in obj["behaviors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(
                f"byzantine entry needs a node_id and a behaviors list: {obj}") from exc
        if node in out:
            raise ConfigInvalid(f"byzantine schedule names node {node} twice")
        out[node] = behaviors
    return tuple(sorted(out.items()))


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


LANE_BLOCK = 512


def _stream(draw: Callable[[], np.ndarray]) -> Callable[[], float]:
    """The next value of an endless stream that `draw` makes in blocks."""
    blocks = iter(lambda: draw().tolist(), None)
    return itertools.chain.from_iterable(blocks).__next__


def _lane(seed_seq: np.random.SeedSequence, mean_ms: float,
          sd_ms: float) -> tuple[Callable[[], float], Callable[[], float]]:
    """One group's (delay, fault) streams: normal delays clamped at zero
    (with no jitter, the mean, and nothing drawn) and uniform fault draws,
    each from its own generator, `LANE_BLOCK` values at a time."""
    delays, faults = (np.random.Generator(np.random.PCG64(seed))
                      for seed in seed_seq.spawn(2))
    next_delay = _stream(lambda: np.maximum(
        delays.normal(mean_ms, sd_ms, LANE_BLOCK), 0.0)) if sd_ms > 0 \
        else itertools.repeat(max(mean_ms, 0.0)).__next__
    return next_delay, _stream(partial(faults.random, LANE_BLOCK))


class Network:
    """Simulated transport plus node CPU accounting. `sched` drives it;
    the default is the reference discrete-event clock. It holds the run's
    tally, one dict increment per count: sends per (category, instance
    key), deliveries per category, `drops` per (node, reason) and `events`
    per (event, proposer instance or node)."""

    def __init__(self, config: SimConfig, sched: Optional[Scheduler] = None):
        self.config = config
        self.sched = sched or Scheduler()
        protocol, ping, aux = (
            _lane(seq, config.delay_mean_ms, config.delay_sd_ms)
            for seq in np.random.SeedSequence(config.seed).spawn(4)[:3])
        self._lanes = {
            category: (category.value, category in _AUX,
                       *(aux if category in _AUX else
                         ping if category is Category.PING else protocol))
            for category in Category}
        self._tracing = config.trace
        cost = config.cost          # read once for the per-message path
        self._base_ms, self._sign_ms = cost.base_ms, cost.sign_ms
        self._verify_ms, self._hash_byte_ms = cost.verify_ms, cost.hash_byte_ms
        self._wire_ms, self._wire_quad_ms = cost.wire_byte_ms, cost.wire_byte_quad_ms
        self._faults_until = float("inf") if config.gst_ms is None else config.gst_ms
        self._drop_rate, self._dup_rate = config.drop_rate, config.dup_rate
        self._gst_bound_ms = config.gst_bound_ms
        self._bandwidth = config.bandwidth_bytes_per_ms
        self._fifo = not config.reorder
        self._handlers: dict[int, Callable[[int, bytes, Category], None]] = {}
        self._up: dict[int, bool] = {}
        self._busy: dict[int, float] = {}
        self._queues: dict[int, _RunQueue] = {}
        self._meters: dict[int, CostMeter] = {}
        self._last_arrival: dict[tuple[int, int], float] = {}
        self._availability_listeners: list[Callable[[int, bool, float], None]] = []
        self.counters: dict[tuple[str, object], int] = {}
        self.delivered: dict[str, int] = {}
        self.drops: Counter = Counter()
        self.events: Counter = Counter()
        self.trace: list[dict] = []
        # pending effects of the handler executing now (handlers never nest)
        self._active_node: Optional[int] = None
        self._deferred_sends: list[tuple] = []     # send's arguments, wire cost
        self._deferred_timers: list[tuple[float, Callable[[], None], Timer]] = []

    # -- membership of the simulation ------------------------------------

    def register(self, node_id: int,
                 handler: Callable[[int, bytes, Category], None]) -> None:
        self._handlers[node_id] = handler
        self._up.setdefault(node_id, True)
        self._busy.setdefault(node_id, 0.0)
        self._queues.setdefault(node_id, _RunQueue())
        self.meter(node_id)

    def meter(self, node_id: int) -> CostMeter:
        """The node's cost meter, made on first use."""
        return self._meters.setdefault(node_id, CostMeter())

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

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, payload: bytes, category: Category,
             instance_key: object = None) -> None:
        """Queue a message. If called from inside a handler invocation on
        src, the send takes effect when that handler's service completes."""
        if dst not in self._handlers:
            raise UnknownEndpoint(f"no endpoint for node {dst}")
        size = len(payload)
        wire_cost = 0.0 if category in _AUX else \
            size * self._wire_ms + size * size * self._wire_quad_ms
        send = (src, dst, payload, category, instance_key, wire_cost)
        if self._active_node == src:
            self._deferred_sends.append(send)
        else:
            self._dispatch_send(self.sched.now, *send)

    def _dispatch_send(self, at_ms: float, src: int, dst: int, payload: bytes,
                       category: Category, instance_key: object,
                       wire_cost: float) -> None:
        note = self._tracing and partial(self._trace, src=src, dst=dst,
                                         category=category, size=len(payload),
                                         instance_key=instance_key)
        if not self._up.get(src, False):
            if note:
                note("send_suppressed")
            return
        name, _, next_delay, next_fault = self._lanes[category]
        key = (name, instance_key)
        self.counters[key] = self.counters.get(key, 0) + 1
        if note:
            note("send")
        faulty = at_ms < self._faults_until
        copies = 1
        if faulty:
            if self._drop_rate and next_fault() < self._drop_rate:
                if note:
                    note("drop")
                return
            if self._dup_rate and next_fault() < self._dup_rate:
                copies = 2
                if note:
                    note("dup")
        deliver = partial(self._deliver, src, dst, payload, category,
                          instance_key, wire_cost)
        for _ in range(copies):
            delay = next_delay()
            if not faulty:
                delay = min(delay, self._gst_bound_ms)
            if self._bandwidth:
                delay += len(payload) / self._bandwidth
            arrival = at_ms + delay
            if self._fifo:
                arrival = max(arrival, self._last_arrival.get((src, dst), 0.0))
                self._last_arrival[src, dst] = arrival
            self.sched.at(arrival, deliver)

    # -- delivery and CPU accounting --------------------------------------

    def _deliver(self, src: int, dst: int, payload: bytes, category: Category,
                 instance_key: object, wire_cost: float) -> None:
        up = self._up.get(dst, False)
        if self._tracing:
            self._trace("deliver" if up else "drop_down", src, dst, category,
                        len(payload), instance_key)
        if not up:
            return
        handler = self._handlers[dst]
        name, aux, _, _ = self._lanes[category]
        self.delivered[name] = self.delivered.get(name, 0) + 1
        if aux:
            # dissemination lane: no CPU contention
            handler(src, payload, category)
            return
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
        meter.signs = meter.verifies = meter.hashed_bytes = 0
        self._active_node = node_id
        self._deferred_sends = sends = []
        self._deferred_timers = timers = []
        try:
            fn()
        finally:
            self._active_node = None
        done = self.sched.now + (
            self._base_ms + preload_ms + sum(map(_WIRE_COST, sends))
            + (meter.signs * self._sign_ms + meter.verifies * self._verify_ms
               + meter.hashed_bytes * self._hash_byte_ms))
        self._busy[node_id] = done
        for send in sends:
            self._dispatch_send(done, *send)
        for delay, timer_fn, timer in timers:
            self.sched.at(done + delay, partial(self._fire, node_id, timer_fn,
                                                timer))

    def _wake(self, node_id: int) -> None:
        """The node's CPU was due to be free: hand the head of its run queue
        to `_invoke`, then wait for the next free CPU if more are queued.
        A timer cancelled while it waited is dropped, not run."""
        queue = self._queues[node_id]
        waiting = queue.waiting
        busy = self._busy[node_id]
        queue.ahead = 0
        if busy <= self.sched.now:
            if not self._up.get(node_id, False):
                waiting.clear()
                queue.wake_at = None
                return
            while waiting and type(head := waiting[0][0]) is _TimerRun \
                    and head.timer.cancelled:
                waiting.popleft()
            if waiting:
                self._invoke(node_id, *waiting.popleft())
            if not waiting:
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
        timer = Timer()
        if self._active_node == node_id:
            self._deferred_timers.append((max(delay_ms, 0.0), fn, timer))
        else:
            self.sched.at(self.sched.now + max(delay_ms, 0.0),
                          partial(self._fire, node_id, fn, timer))
        return timer

    def _fire(self, node_id: int, fn: Callable[[], None], timer: Timer) -> None:
        if not timer.cancelled:
            self._invoke(node_id, _TimerRun(fn, timer))

    def every(self, node_id: int, period_ms: float,
              fn: Callable[[], None]) -> Timer:
        """Recurring timer, first one period from now: re-arms regardless of
        node state, runs the body only while the node is up."""
        timer = Timer()
        first = self.sched.now + period_ms
        self.sched.at(first, partial(self._tick, node_id, period_ms, fn, timer,
                                     first))
        return timer

    def _tick(self, node_id: int, period_ms: float, fn: Callable[[], None],
              timer: Timer, when: float) -> None:
        if timer.cancelled:
            return
        if self._up.get(node_id, False):
            self._invoke(node_id, _TimerRun(fn, timer))
        when += period_ms
        self.sched.at(when, partial(self._tick, node_id, period_ms, fn, timer,
                                    when))

    # -- bookkeeping -------------------------------------------------------

    def totals_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (category, _), count in self.counters.items():
            out[category] = out.get(category, 0) + count
        return out

    def instance_counts(self, category: Category) -> dict[object, int]:
        out: dict[object, int] = {}
        name = category.value
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
        garbage collector finds it. The tally and the trace stay."""
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
    """A node's bound view of the network: what engines are allowed to use,
    the run's clock (`sched`), the node's cost meter and the run's `drops`
    and `events` tallies among it."""

    __slots__ = ("net", "node_id", "sched", "meter", "drops", "events")

    def __init__(self, net: Network, node_id: int):
        self.net = net
        self.node_id = node_id
        self.sched = net.sched
        self.meter = net.meter(node_id)
        self.drops = net.drops
        self.events = net.events

    def now_us(self) -> int:
        return int(round(self.sched.now * 1000.0))

    def after(self, delay_ms: float, fn: Callable[[], None]) -> Timer:
        return self.net.schedule(self.node_id, delay_ms, fn)

    def every(self, period_ms: float, fn: Callable[[], None]) -> Timer:
        return self.net.every(self.node_id, period_ms, fn)
