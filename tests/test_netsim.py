"""Simulator semantics: determinism, CPU queueing, faults, churn, timers.

Delay and cost parameters are chosen so expected arrival and service times
are exact float arithmetic, letting assertions use equality rather than
tolerances.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pytest

from conftest import make_pool
from vguard.bench import WallClock
from vguard.errors import ConfigInvalid, UnknownEndpoint
from vguard.netsim import (LANE_BLOCK, ByzantineBehavior, Category,
                           ChurnEvent, CostModel, Network, NodeEnv, Scheduler,
                           SimConfig, _lane)
from vguard.node import NodeRuntime, ProtocolConfig

# Nothing costs service time but what a handler bills through `charge_ms`,
# which counts each billed millisecond as one 1 ms signature.
FREE = CostModel(base_ms=0.0, sign_ms=1.0, verify_ms=0.0, hash_byte_ms=0.0,
                 wire_byte_ms=0.0, wire_byte_quad_ms=0.0)


def charge_ms(net: Network, node_id: int, ms: float) -> None:
    net.meter(node_id).sign(ms)


def quiet(**over) -> SimConfig:
    base = dict(seed=1, delay_mean_ms=1.0, delay_sd_ms=0.0, drop_rate=0.0,
                dup_rate=0.0, bandwidth_bytes_per_ms=None, cost=FREE)
    base.update(over)
    return SimConfig(**base)


class Recorder:
    def __init__(self, net: Network):
        self.net = net
        self.events: list[tuple[float, int, bytes]] = []

    def __call__(self, src: int, payload: bytes, category: Category) -> None:
        self.events.append((self.net.now, src, payload))

    @property
    def times(self) -> list[float]:
        return [t for t, _, _ in self.events]


def wire(net: Network, node_ids) -> dict[int, Recorder]:
    recs = {}
    for node_id in node_ids:
        rec = Recorder(net)
        net.register(node_id, rec)
        recs[node_id] = rec
    return recs


def test_fixed_delay_delivery():
    net = Network(quiet())
    recs = wire(net, [1, 2])
    net.send(1, 2, b"hello", Category.CONTROL)
    net.run_until(10.0)
    assert recs[2].events == [(1.0, 1, b"hello")]


def test_bandwidth_term_adds_transfer_time():
    net = Network(quiet(bandwidth_bytes_per_ms=100.0))
    recs = wire(net, [1, 2])
    net.send(1, 2, b"x" * 250, Category.CONTROL)  # 250 bytes / 100 per ms
    net.run_until(10.0)
    assert recs[2].times == [1.0 + 2.5]


def test_cpu_queue_serializes_same_node():
    net = Network(quiet())
    times = []

    def slow_handler(src, payload, category):
        times.append(net.now)
        charge_ms(net, 2, 5.0)

    net.register(1, lambda *a: None)
    net.register(3, lambda *a: None)
    net.register(2, slow_handler)
    net.send(1, 2, b"a", Category.CONTROL)
    net.send(3, 2, b"b", Category.CONTROL)
    net.run_until(20.0)
    # both arrive at 1.0; the second waits for the first's 5ms service
    assert times == [1.0, 6.0]


def test_sends_inside_handler_stamped_at_completion():
    net = Network(quiet())
    recs = wire(net, [1, 3])

    def relay(src, payload, category):
        charge_ms(net, 2, 5.0)
        net.send(2, 3, b"relayed", Category.CONTROL)

    net.register(2, relay)
    net.send(1, 2, b"go", Category.CONTROL)
    net.run_until(20.0)
    # service ends at 1.0 + 5.0; relay rides one more 1.0ms link
    assert recs[3].events == [(7.0, 2, b"relayed")]


def test_timer_set_inside_handler_counts_from_completion():
    net = Network(quiet())
    fired = []

    def handler(src, payload, category):
        charge_ms(net, 2, 5.0)
        net.schedule(2, 2.0, lambda: fired.append(net.now))

    net.register(1, lambda *a: None)
    net.register(2, handler)
    net.send(1, 2, b"go", Category.CONTROL)
    net.run_until(20.0)
    assert fired == [8.0]


def test_inbound_wire_preload_charges_service():
    cost = CostModel(base_ms=0.0, sign_ms=0.0, verify_ms=0.0,
                     hash_byte_ms=0.0, wire_byte_ms=0.001,
                     wire_byte_quad_ms=0.0)
    net = Network(quiet(cost=cost))
    times = []
    net.register(1, lambda *a: None)
    net.register(2, lambda *a: times.append(net.now))
    payload = b"x" * 1000  # 1.0ms of wire handling
    net.send(1, 2, payload, Category.CONTROL)
    net.send(1, 2, payload, Category.CONTROL)
    net.run_until(20.0)
    assert times == [1.0, 2.0]


def test_aux_lane_bypasses_cpu_queue():
    net = Network(quiet())
    times = []

    def gossip_handler(src, payload, category):
        # aux lane must not bill this anywhere
        charge_ms(net, 2, 1000.0)

    def control_handler(src, payload, category):
        times.append(net.now)

    net.register(1, lambda *a: None)

    def dispatch(src, payload, category):
        if category is Category.GOSSIP:
            gossip_handler(src, payload, category)
        else:
            control_handler(src, payload, category)

    net.register(2, dispatch)
    net.send(1, 2, b"g", Category.GOSSIP)
    net.send(1, 2, b"c", Category.CONTROL)
    net.run_until(20.0)
    # the control message is not queued behind any phantom gossip cost
    assert times == [1.0]


@pytest.mark.parametrize("mean, sd", [(1.0, 0.2), (0.8, 1.2), (2.5, 0.2),
                                      (1.65, 0.7), (0.05, 3.0), (40.0, 0.001)])
def test_lane_draws_in_blocks_what_scalar_draws_would(mean, sd):
    """A lane's streams give the values of one scalar `Generator` call per
    message, in order, across block boundaries and whatever the other
    stream has drawn, each delay clamped at zero. The scalar loop is the
    reference."""
    count = 2 * LANE_BLOCK + 7
    next_delay, next_fault = _lane(np.random.SeedSequence(41), mean, sd)
    delay_seed, fault_seed = np.random.SeedSequence(41).spawn(2)
    delays = np.random.Generator(np.random.PCG64(delay_seed))
    faults = np.random.Generator(np.random.PCG64(fault_seed))
    got_delays, got_faults = [], []
    for i in range(count):
        got_delays.append(next_delay())
        if i % 3:
            got_faults.append(next_fault())
    assert got_delays == [max(delays.normal(mean, sd), 0.0)
                          for _ in range(count)]
    assert got_faults == [faults.random() for _ in range(len(got_faults))]
    assert len(got_faults) > LANE_BLOCK
    assert all(type(v) is float for v in got_delays + got_faults)


def test_same_seed_identical_trace_different_seed_diverges():
    def storm(seed: int) -> list[dict]:
        net = Network(SimConfig(seed=seed, delay_mean_ms=2.0, delay_sd_ms=1.0,
                                drop_rate=0.3, dup_rate=0.2, trace=True,
                                bandwidth_bytes_per_ms=None, cost=FREE))
        wire(net, [1, 2, 3])
        for i in range(50):
            net.run_until(float(i))
            net.send(1 + i % 2, 3, bytes([i]), Category.CONSENSUS, ("k", i))
        net.run_until(200.0)
        return net.trace

    assert storm(42) == storm(42)
    assert storm(42) != storm(43)


def test_drops_and_dups_stop_at_gst_and_delay_clamps():
    cfg = quiet(seed=5, delay_mean_ms=50.0, drop_rate=0.5, dup_rate=0.5,
                gst_ms=100.0, gst_bound_ms=2.0)
    net = Network(cfg)
    recs = wire(net, [1, 2])
    for i in range(100):
        net.run_until(float(i))
        net.send(1, 2, b"pre", Category.CONSENSUS)
    pre_sent = 100

    net.run_until(200.0)
    pre_delivered = len(recs[2].events)
    assert pre_delivered < pre_sent  # at least one drop in 100 coin flips

    for i in range(100):
        net.run_until(200.0 + i)
        net.send(1, 2, b"post", Category.CONSENSUS)
    net.run_until(400.0)
    post = [(t, p) for t, _, p in recs[2].events if p == b"post"]
    assert len(post) == 100          # no drops, no dups after stabilization
    sent_times = [200.0 + i for i in range(100)]
    for (arrived, _), sent in zip(post, sent_times):
        assert arrived == sent + 2.0  # 50ms mean clamped to the 2ms bound


def test_fifo_per_link_when_reorder_disabled():
    def arrivals(reorder: bool) -> list[int]:
        net = Network(SimConfig(seed=9, delay_mean_ms=5.0, delay_sd_ms=4.0,
                                reorder=reorder, bandwidth_bytes_per_ms=None,
                                cost=FREE))
        recs = wire(net, [1, 2])
        for i in range(40):
            net.run_until(float(i) * 0.1)
            net.send(1, 2, bytes([i]), Category.CONSENSUS)
        net.run_until(500.0)
        return [p[0] for _, _, p in recs[2].events]

    ordered = arrivals(reorder=False)
    assert ordered == sorted(ordered)
    free = arrivals(reorder=True)
    assert sorted(free) == list(range(40))
    assert free != sorted(free)  # seed 9 exhibits at least one inversion


def test_down_node_neither_sends_nor_receives():
    net = Network(quiet(trace=True))
    recs = wire(net, [1, 2, 3])
    net.set_up(2, False)
    net.send(1, 2, b"to-down", Category.CONTROL)
    net.send(2, 3, b"from-down", Category.CONTROL)
    net.run_until(10.0)
    assert recs[2].events == []
    assert recs[3].events == []
    kinds = [e["kind"] for e in net.trace]
    assert "send_suppressed" in kinds
    assert "drop_down" in kinds


def test_availability_listeners_and_churn_schedule():
    net = Network(quiet())
    wire(net, [1, 2])
    seen = []
    net.on_availability_change(lambda node, up, now: seen.append((node, up, now)))
    net.inject_churn([ChurnEvent(at_ms=35.0, node_id=2, up=False),
                      ChurnEvent(at_ms=70.0, node_id=2, up=True)])
    net.run_until(100.0)
    assert seen == [(2, False, 35.0), (2, True, 70.0)]


def test_every_skips_body_while_down_but_keeps_phase():
    net = Network(quiet())
    wire(net, [1])
    ticks = []
    net.every(1, 10.0, lambda: ticks.append(net.now))
    net.inject_churn([ChurnEvent(at_ms=5.0, node_id=1, up=False),
                      ChurnEvent(at_ms=35.0, node_id=1, up=True)])
    net.run_until(61.0)
    assert ticks == [40.0, 50.0, 60.0]


def test_one_shot_timer_skipped_when_down():
    net = Network(quiet())
    wire(net, [1])
    fired = []
    net.schedule(1, 5.0, lambda: fired.append(net.now))
    net.set_up(1, False)
    net.run_until(20.0)
    assert fired == []


def test_timer_cancel():
    net = Network(quiet())
    wire(net, [1])
    fired = []
    timer = net.schedule(1, 5.0, lambda: fired.append(net.now))
    timer.cancel()
    net.every(1, 3.0, lambda: fired.append(-net.now)).cancel()
    net.run_until(30.0)
    assert fired == []


def test_negative_delay_clamps_to_now():
    net = Network(quiet())
    wire(net, [1])
    fired = []
    net.run_until(4.0)
    net.schedule(1, -10.0, lambda: fired.append(net.now))
    net.run_until(5.0)
    assert fired == [4.0]


def test_wall_clock_runs_events_when_due_on_the_process_clock():
    clock = WallClock()
    seen = []

    def stamp(due):
        seen.append((due, clock.now, (time.perf_counter() - start) * 1000.0))

    clock.at(30.0, partial(stamp, 30.0))
    clock.at(10.0, partial(stamp, 10.0))
    start = time.perf_counter()
    clock.run_until(50.0)
    took_ms = (time.perf_counter() - start) * 1000.0
    assert [due for due, _, _ in seen] == [10.0, 30.0]
    for due, now, elapsed in seen:
        assert due <= now <= elapsed
    assert took_ms >= 50.0


def test_send_to_unknown_endpoint_raises():
    net = Network(quiet())
    wire(net, [1])
    with pytest.raises(UnknownEndpoint):
        net.send(1, 99, b"?", Category.CONTROL)


def test_counters_track_sends_by_instance_key():
    net = Network(quiet(drop_rate=0.9, seed=3))
    wire(net, [1, 2])
    for i in range(20):
        net.send(1, 2, b"m", Category.ORDERING, ("inst", i % 2))
    net.send(1, 2, b"m", Category.CONTROL)
    net.run_until(50.0)
    counts = net.instance_counts(Category.ORDERING)
    assert counts == {("inst", 0): 10, ("inst", 1): 10}  # drops still count
    assert net.counters[("ordering", ("inst", 0))] == 10
    totals = net.totals_by_category()
    assert totals["ordering"] == 20
    assert totals["control"] == 1


def test_byzantine_behaviors_reach_the_runtime():
    pool = make_pool([4, 5])

    def runtime(node_id, byzantine=()):
        return NodeRuntime(node_id, NodeEnv(Network(quiet()), node_id),
                           pool.registry, pool.keys[node_id],
                           ProtocolConfig(), 100_000, byzantine=byzantine)

    with pytest.raises(ConfigInvalid):
        runtime(4, ["sulk"])
    assert runtime(4, ["silent"]).actor.behaviors == {ByzantineBehavior.SILENT}
    assert runtime(5).actor is None


# -- per-node run queues ------------------------------------------------------

def busy_node(net: Network, log: list, service_ms: float = 5.0) -> None:
    """Node 2 logs (payload, start time) and charges `service_ms` per message."""

    def handler(src, payload, category):
        log.append((payload.decode(), net.now))
        charge_ms(net, 2, service_ms)

    net.register(2, handler)


def test_waiting_invocations_run_fifo_one_per_busy_period(monkeypatch):
    pushes = []
    at = Scheduler.at

    def counted(sched, when_ms, fn):
        pushes.append(when_ms)
        return at(sched, when_ms, fn)

    monkeypatch.setattr(Scheduler, "at", counted)
    net = Network(quiet())
    log = []
    wire(net, [1])
    busy_node(net, log)
    for i, name in enumerate("abcde"):
        net.run_until(0.5 * i)
        net.send(1, 2, name.encode(), Category.CONTROL)
    net.run_until(40.0)
    assert log == [("a", 1.0), ("b", 6.0), ("c", 11.0), ("d", 16.0),
                   ("e", 21.0)]
    # one event per delivery plus one wake per busy period that ends with
    # work waiting, however long each invocation waited
    assert len(pushes) == 5 + 4


def test_zero_delay_timers_of_the_running_handler_go_ahead_of_the_queue():
    net = Network(quiet())
    log = []
    wire(net, [1])

    def handler(src, payload, category):
        log.append((payload.decode(), net.now))
        charge_ms(net, 2, 5.0)
        if payload == b"a":
            for name in ("t1", "t2"):
                net.schedule(2, 0.0, lambda name=name: (
                    log.append((name, net.now)), charge_ms(net, 2, 1.0)))

    net.register(2, handler)
    for name in "abc":
        net.send(1, 2, name.encode(), Category.CONTROL)
    net.run_until(40.0)
    # b and c were queued before a set its timers, and still run after them
    assert log == [("a", 1.0), ("t1", 6.0), ("t2", 7.0), ("b", 8.0),
                   ("c", 13.0)]


def test_node_that_goes_down_drops_its_queued_invocations():
    net = Network(quiet())
    log = []
    wire(net, [1])
    busy_node(net, log)
    for name in "abc":
        net.send(1, 2, name.encode(), Category.CONTROL)
    net.inject_churn([ChurnEvent(at_ms=3.0, node_id=2, up=False),
                      ChurnEvent(at_ms=10.0, node_id=2, up=True)])
    net.run_until(12.0)
    net.send(1, 2, b"d", Category.CONTROL)
    net.send(1, 2, b"e", Category.CONTROL)
    net.run_until(40.0)
    # b and c waited behind a; the CPU came free at 6.0 with the node down,
    # and they are gone, not ahead of e, once it is back up
    assert log == [("a", 1.0), ("d", 13.0), ("e", 18.0)]


def test_timer_cancelled_while_queued_still_runs_and_charges_base():
    cost = CostModel(base_ms=0.5, sign_ms=1.0, verify_ms=0.0,
                     hash_byte_ms=0.0, wire_byte_ms=0.0, wire_byte_quad_ms=0.0)
    net = Network(quiet(cost=cost))
    log = []
    wire(net, [1])
    busy_node(net, log)
    net.send(1, 2, b"a", Category.CONTROL)              # busy 1.0 .. 6.5
    timer = net.schedule(2, 2.0, lambda: log.append(("timer", net.now)))
    net.run_until(3.0)
    timer.cancel()                                      # fired at 2.0, queued
    net.run_until(4.0)
    net.send(1, 2, b"b", Category.CONTROL)              # arrives at 5.0
    net.run_until(40.0)
    assert log == [("a", 1.0), ("timer", 6.5), ("b", 7.0)]
