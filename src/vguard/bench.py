"""Wall-clock benchmark transport.

Runs the same node runtimes over OS threads instead of the simulated
scheduler: one dispatch thread per node (preserving the one-handler-at-a-time
rule engines assume) plus a single timer thread. Message passing is lossless
in-process loopback, so latency numbers reflect real serialization, signing,
and queue pressure rather than modeled link delays. Faults, churn, and
per-event tracing are simulation features and are rejected here.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from collections import Counter
from typing import Callable, Optional

from .errors import ConfigInvalid
from .netsim import Category, CostMeter, SimConfig


class _WallClock:
    """Duck-types the simulator scheduler's read side for NodeEnv."""

    __slots__ = ("_t0",)

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0


class _Timer:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _NodeWorker:
    """FIFO executor: everything a node does runs on its own single thread."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.inbox: "queue.Queue[Optional[Callable[[], None]]]" = queue.Queue()
        self.thread = threading.Thread(
            target=self._loop, name=f"vguard-node-{node_id}", daemon=True)
        self.errors: list[BaseException] = []

    def _loop(self) -> None:
        while True:
            fn = self.inbox.get()
            if fn is None:
                return
            try:
                fn()
            except BaseException as exc:  # surfaced after the run
                self.errors.append(exc)


class RealtimeNetwork:
    """Network stand-in backed by threads and the process clock.

    Exposes the attribute surface the harness and NodeRuntime touch:
    sched.now, meter, register, send, schedule, every, run_until, close,
    instance_counts, totals_by_category, on_availability_change, config,
    trace, inject_churn, wrap_byzantine.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.sched = _WallClock()
        self.trace: list = []
        self._workers: dict[int, _NodeWorker] = {}
        self._handlers: dict[int, Callable[[int, bytes, Category], None]] = {}
        self._meters: dict[int, CostMeter] = {}
        self._lock = threading.Lock()
        self._category_counts: Counter = Counter()
        self._instance_counts: Counter = Counter()
        self._timer_heap: list = []
        self._timer_seq = itertools.count()
        self._timer_cv = threading.Condition()
        self._stopping = False
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="vguard-timers", daemon=True)
        self._timer_thread.start()

    # -- wiring ----------------------------------------------------------

    def register(self, node_id: int,
                 handler: Callable[[int, bytes, Category], None]) -> None:
        if node_id in self._handlers:
            raise ConfigInvalid(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._meters[node_id] = CostMeter()
        worker = _NodeWorker(node_id)
        self._workers[node_id] = worker
        worker.thread.start()

    def meter(self, node_id: int) -> CostMeter:
        return self._meters[node_id]

    def byzantine_behaviors(self, node_id: int) -> list:
        return []

    def on_availability_change(self, fn) -> None:
        pass  # no churn in benchmark mode, nothing will ever fire

    def wrap_byzantine(self, node_id: int, behaviors) -> None:
        raise ConfigInvalid("byzantine behaviors need the simulated transport")

    def inject_churn(self, events: list) -> None:
        if events:
            raise ConfigInvalid("churn needs the simulated transport")

    # -- data plane ------------------------------------------------------

    def send(self, src: int, dst: int, payload: bytes, category: Category,
             instance_key: object = None) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            return
        with self._lock:
            self._category_counts[str(category)] += 1
            if instance_key is not None:
                self._instance_counts[(str(category), instance_key)] += 1
        self._workers[dst].inbox.put(lambda: handler(src, payload, category))

    # -- timers ----------------------------------------------------------

    def schedule(self, node_id: int, delay_ms: float,
                 fn: Callable[[], None]) -> _Timer:
        timer = _Timer()
        self._push(self.sched.now + max(delay_ms, 0.0), node_id, fn, timer,
                   None)
        return timer

    def every(self, node_id: int, period_ms: float, fn: Callable[[], None],
              start_at_ms: Optional[float] = None) -> _Timer:
        if period_ms <= 0:
            raise ConfigInvalid("period must be positive")
        timer = _Timer()
        first = start_at_ms if start_at_ms is not None \
            else self.sched.now + period_ms
        self._push(first, node_id, fn, timer, period_ms)
        return timer

    def _push(self, due_ms: float, node_id: int, fn, timer: _Timer,
              period_ms: Optional[float]) -> None:
        with self._timer_cv:
            heapq.heappush(self._timer_heap,
                           (due_ms, next(self._timer_seq), node_id, fn, timer,
                            period_ms))
            self._timer_cv.notify()

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cv:
                while not self._stopping and (
                        not self._timer_heap
                        or self._timer_heap[0][0] > self.sched.now):
                    if self._timer_heap:
                        wait_s = (self._timer_heap[0][0] - self.sched.now) / 1000
                        self._timer_cv.wait(timeout=max(wait_s, 0.0005))
                    else:
                        self._timer_cv.wait()
                if self._stopping:
                    return
                due_ms, _, node_id, fn, timer, period = heapq.heappop(
                    self._timer_heap)
            if timer.cancelled:
                continue
            worker = self._workers.get(node_id)
            if worker is not None:
                worker.inbox.put(
                    lambda fn=fn, timer=timer: None if timer.cancelled else fn())
            if period is not None:
                self._push(due_ms + period, node_id, fn, timer, period)

    # -- run control -----------------------------------------------------

    def run_until(self, until_ms: float) -> None:
        remaining_s = (until_ms - self.sched.now) / 1000.0
        if remaining_s > 0:
            time.sleep(remaining_s)

    def quiesce(self) -> None:
        """Stop timers, drain every inbox, park the workers. Idempotent."""
        with self._timer_cv:
            if self._stopping:
                return
            self._stopping = True
            self._timer_cv.notify_all()
        self._timer_thread.join(timeout=5.0)
        # handlers drained here may enqueue further sends; repoll until all
        # inboxes are simultaneously empty or the deadline hits
        deadline = time.monotonic() + 5.0
        while any(not w.inbox.empty() for w in self._workers.values()):
            if time.monotonic() > deadline:
                break
            time.sleep(0.001)
        for worker in self._workers.values():
            worker.inbox.put(None)
        for worker in self._workers.values():
            worker.thread.join(timeout=5.0)
        errors = [e for w in self._workers.values() for e in w.errors]
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Drop timers, handlers and workers once quiesced, as
        `netsim.Network.close` does, so that reference counting frees the
        finished run. Idempotent."""
        self.quiesce()
        self._timer_heap.clear()
        self._handlers.clear()
        self._workers.clear()

    # -- accounting ------------------------------------------------------

    def totals_by_category(self) -> dict[str, int]:
        with self._lock:
            return dict(self._category_counts)

    def instance_counts(self, category: Category) -> dict[object, int]:
        want = str(category)
        with self._lock:
            return {key[1]: count for key, count in self._instance_counts.items()
                    if key[0] == want}


def run_benchmark(spec):
    """Execute a RunSpec over the threaded transport and audit the result."""
    from dataclasses import replace

    from .harness import run

    spec = spec.validate()
    if spec.byzantine or spec.churn:
        raise ConfigInvalid("benchmark mode is fault-free; use reference mode")
    if spec.sim.trace:
        spec = replace(spec, sim=replace(spec.sim, trace=False))
    net = RealtimeNetwork(spec.sim)
    try:
        return run(spec, net=net)
    finally:
        net.close()
