"""Wall-clock benchmark mode.

Runs the same node runtimes over the simulated `netsim.Network`, driven by
the process clock instead of the modeled one. `WallClock` keeps the
reference scheduler's heap and only changes how time advances: each event
waits until it is due and then starts no earlier than the events before it
really finished, so latency numbers reflect real serialization, signing and
queueing rather than modeled link delays or CPU costs. Delivery is lossless
loopback with no modeled delay. Faults, churn, and per-event tracing are
simulation features and are rejected here.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import fields, replace
from typing import Optional

from .errors import ConfigInvalid
from .netsim import CostModel, Network, Scheduler

_FREE = CostModel(**{f.name: 0.0 for f in fields(CostModel)})


class WallClock(Scheduler):
    """Scheduler whose clock is the process clock, in ms since the first
    `run_until`. An event runs once it is due, with `now` set to the later
    of its due time and the process clock; within one handler `now` stays
    the time that handler started, as in reference mode."""

    def __init__(self):
        super().__init__()
        self._t0: Optional[float] = None

    def _elapsed_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def _sleep_until(self, when_ms: float) -> None:
        while (wait_ms := when_ms - self._elapsed_ms()) > 0:
            time.sleep(wait_ms / 1000.0)

    def run_until(self, until_ms: float) -> None:
        if self._t0 is None:
            self._t0 = time.perf_counter() - self.now / 1000.0
        heap = self._heap
        while heap and heap[0][0] <= until_ms:
            self._sleep_until(heap[0][0])
            when, _, fn = heapq.heappop(heap)
            self.now = max(when, self._elapsed_ms())
            fn()
        self._sleep_until(until_ms)
        self.now = max(self.now, self._elapsed_ms())


def run_benchmark(spec):
    """Execute a RunSpec on the wall clock and audit the result."""
    from .harness import run

    spec = spec.validate()
    if spec.byzantine or spec.churn:
        raise ConfigInvalid("benchmark mode is fault-free; use reference mode")
    sim = replace(spec.sim, delay_mean_ms=0.0, delay_sd_ms=0.0, drop_rate=0.0,
                  dup_rate=0.0, bandwidth_bytes_per_ms=None, cost=_FREE,
                  trace=False)
    return run(replace(spec, sim=sim), net=Network(sim, sched=WallClock()))
