"""Membership unit: latency smoothing, booth queue discipline, churn."""

from __future__ import annotations

import random

import pytest

from conftest import make_pool
from vguard.errors import UnknownNode
from vguard.messages import Pong
from vguard.mmu import MembershipUnit, MmuConfig
from vguard.netsim import Network, NodeEnv, SimConfig

POOL_IDS = [1, 2, 3, 4, 5, 6, 7, 8]


def make_mmu(queue_depth: int = 4, pool_ids=POOL_IDS, booth_size: int = 4):
    pool = make_pool(pool_ids, seed=17, pivot_id=1, proposer_id=2)
    mmu = MembershipUnit(
        instance_id=1, proposer_id=2, pivot_id=1,
        pool=[pool.identities[i] for i in pool_ids],
        booth_size=booth_size, config=MmuConfig(queue_depth=queue_depth),
        env=NodeEnv(Network(SimConfig()), 2))
    return mmu, pool


def members_of(mmu: MembershipUnit) -> list[frozenset]:
    return [frozenset(b.member_ids) for b in mmu.queue]


def compose_booths(mmu: MembershipUnit) -> list:
    """The booths a fresh queue would hold, nearest first."""
    sets = mmu._compositions()[:mmu.config.queue_depth]
    return [mmu._provision(members) for members in sets]


def feed_descending_rtts(mmu: MembershipUnit) -> None:
    # vehicle 3 slowest (5ms) .. vehicle 8 fastest (0ms)
    for node_id, rtt in zip(range(3, 9), [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]):
        mmu.note_rtt(node_id, rtt)


def test_ewma_follows_exponential_recurrence():
    mmu, _ = make_mmu()
    expected = None
    alpha = mmu.config.ewma_alpha
    for sample in [10.0, 20.0, 30.0, 5.0]:
        mmu.note_rtt(3, sample)
        expected = sample if expected is None \
            else alpha * sample + (1 - alpha) * expected
    assert mmu.status[3].rtt_ewma_ms == pytest.approx(expected)
    assert expected == pytest.approx(0.2 * 5.0 + 0.8 * 15.6)


def test_initial_queue_uses_id_order_when_no_rtt_yet():
    mmu, _ = make_mmu()
    assert members_of(mmu) == [
        frozenset({1, 2, 3, 4}), frozenset({1, 2, 4, 5}),
        frozenset({1, 2, 5, 6}), frozenset({1, 2, 6, 7})]


def test_compositions_slide_over_latency_sorted_vehicles():
    mmu, _ = make_mmu()
    feed_descending_rtts(mmu)
    fresh = [frozenset(p.member_ids) for p in compose_booths(mmu)]
    assert fresh == [
        frozenset({1, 2, 7, 8}), frozenset({1, 2, 6, 7}),
        frozenset({1, 2, 5, 6}), frozenset({1, 2, 4, 5})]


def test_queue_resorts_by_worst_member_latency():
    mmu, _ = make_mmu()
    feed_descending_rtts(mmu)
    latencies = [mmu.latency_of(b) for b in mmu.queue]
    assert latencies == sorted(latencies)
    # worst member dominates: the {6,7} window (max rtt 2.0) leads
    assert members_of(mmu)[0] == frozenset({1, 2, 6, 7})
    assert latencies[0] == pytest.approx(2.0)
    head = mmu.current_booth()
    assert frozenset(head.member_ids) == frozenset({1, 2, 6, 7})


def test_every_booth_contains_proposer_and_pivot():
    mmu, _ = make_mmu(queue_depth=6)
    feed_descending_rtts(mmu)
    for members in members_of(mmu):
        assert {1, 2} <= members
    for profile in compose_booths(mmu):
        assert profile.proposer_id == 2
        assert profile.pivot_id == 1


def test_one_down_member_invalidates_booth_of_four():
    mmu, _ = make_mmu()
    invalidated = []
    mmu.on_booth_invalidated(invalidated.append)
    head = mmu.current_booth()
    assert head is not None
    victim = max(m for m in head.member_ids if m not in (1, 2))
    mmu.mark_availability(victim, False)
    assert invalidated  # every queued booth containing the victim is purged
    assert all(victim not in members for members in members_of(mmu))
    replacement = mmu.current_booth()
    assert replacement is not None
    assert replacement.booth_hash != head.booth_hash
    assert victim not in replacement.member_ids


def test_a_member_back_up_no_longer_counts_against_queued_booths():
    """Only members down now count against a queued booth's fault budget:
    member 3 going down and back up, then member 4 going down, leaves one
    member of the 7-member booth {1..7} (fault budget 2) down, so the
    booth stays queued."""
    mmu, _ = make_mmu(pool_ids=range(1, 11), booth_size=7)
    booth = frozenset(range(1, 8))
    assert booth in members_of(mmu)
    invalidated = []
    mmu.on_booth_invalidated(invalidated.append)
    mmu.mark_availability(3, False)
    mmu.mark_availability(3, True)
    mmu.mark_availability(4, False)
    assert invalidated == []
    assert booth in members_of(mmu)
    mmu.mark_availability(5, False)          # now two of its members are down
    assert booth not in members_of(mmu)


def test_refill_restores_depth_after_churn():
    mmu, _ = make_mmu()
    feed_descending_rtts(mmu)
    mmu.mark_availability(3, False)
    # {3,4} window purged; {7,8} is the only unqueued composition left
    assert sorted(members_of(mmu), key=sorted) == sorted([
        frozenset({1, 2, 4, 5}), frozenset({1, 2, 5, 6}),
        frozenset({1, 2, 6, 7}), frozenset({1, 2, 7, 8})], key=sorted)
    assert len(mmu.queue) == mmu.config.queue_depth


def test_booth_identity_survives_flap():
    mmu, _ = make_mmu()
    head = mmu.current_booth()
    victim = max(m for m in head.member_ids if m not in (1, 2))
    mmu.mark_availability(victim, False)
    assert all(head.booth_hash != b.booth_hash for b in mmu.queue)
    mmu.mark_availability(victim, True)
    # same member set re-forms with the same cached profile
    refreshed = compose_booths(mmu)[0]
    assert frozenset(refreshed.member_ids) == frozenset(head.member_ids)
    assert refreshed.booth_hash == head.booth_hash
    assert refreshed is head


def test_no_booth_parks_then_availability_listener_fires():
    mmu, _ = make_mmu(pool_ids=[1, 2, 3, 4])
    woke = []
    mmu.on_booth_available(lambda: woke.append(True))
    mmu.mark_availability(3, False)
    assert mmu.current_booth() is None  # 2 vehicles needed, 1 up
    assert compose_booths(mmu) == []
    mmu.mark_availability(3, True)
    assert woke
    assert mmu.current_booth() is not None


def test_pivot_down_means_no_booth():
    mmu, _ = make_mmu()
    mmu.mark_availability(1, False)
    assert mmu.current_booth() is None
    mmu.mark_availability(1, True)
    assert mmu.current_booth() is not None


def test_missed_pings_take_node_down_and_rtt_revives():
    mmu, _ = make_mmu()
    limit = mmu.config.ping_miss_limit
    for _ in range(limit - 1):
        mmu.note_missed_ping(8)
    assert mmu.status[8].up
    mmu.note_rtt(8, 1.0)             # an answered ping clears the streak
    assert mmu.status[8].missed_pings == 0
    for _ in range(limit):
        mmu.note_missed_ping(8)
    assert not mmu.status[8].up
    mmu.note_rtt(8, 1.0)
    assert mmu.status[8].up


def test_unknown_node_rejected():
    mmu, _ = make_mmu()
    with pytest.raises(UnknownNode):
        mmu.mark_availability(99, False)


def test_booth_changes_counts_head_switches():
    mmu, _ = make_mmu()
    first = mmu.current_booth()
    assert mmu.env.events == {("booth_changes", 1): 1}
    again = mmu.current_booth()
    assert again.booth_hash == first.booth_hash
    # serving the same head is not a change
    assert mmu.env.events == {("booth_changes", 1): 1}
    victim = max(m for m in first.member_ids if m not in (1, 2))
    mmu.mark_availability(victim, False)
    mmu.current_booth()
    assert mmu.env.events == {("booth_changes", 1): 2}


def test_same_seeds_build_identical_queues():
    a, _ = make_mmu()
    b, _ = make_mmu()
    assert [q.booth_hash for q in a.queue] == [q.booth_hash for q in b.queue]


def test_larger_booths_use_wider_windows():
    mmu, _ = make_mmu(booth_size=7, queue_depth=2, pool_ids=list(range(1, 10)))
    for members in members_of(mmu):
        assert len(members) == 7
        assert {1, 2} <= members
    head = mmu.current_booth()
    assert head.fault_budget == 2


@pytest.mark.parametrize("booth_size, pool_ids",
                         [(4, POOL_IDS), (7, list(range(1, 11)))])
def test_queue_holds_only_valid_booths_under_random_churn(booth_size,
                                                          pool_ids):
    """Whatever mix of churn, round trips and missed pings arrives, every
    queued booth is valid and the head is what `current_booth` serves,
    after each step and inside every listener the unit calls."""
    mmu, _ = make_mmu(pool_ids=pool_ids, booth_size=booth_size)
    rng = random.Random(booth_size)

    def check(*_):
        assert all(mmu.valid(b) for b in mmu.queue)
        head = mmu.current_booth()
        assert head is (mmu.queue[0] if mmu.queue else None)

    mmu.on_booth_invalidated(check)
    mmu.on_booth_available(check)
    for _ in range(400):
        node_id = rng.choice(pool_ids)
        step = rng.randrange(3)
        if step == 0:
            mmu.mark_availability(node_id, rng.random() < 0.6)
        elif step == 1:
            mmu.note_rtt(node_id, rng.uniform(0.0, 10.0))
        else:
            mmu.note_missed_ping(node_id)
        check()


def run_with_node_3_down_off_the_ping_grid() -> None:
    """The README run (seed 7) with node 3 down from 101.3 ms to 401.3 ms,
    off the 20 ms ping grid."""
    from vguard import harness
    from vguard.netsim import ChurnEvent

    harness.run(harness.RunSpec(
        booth_size=4, duration_ms=1000.0, rate_per_s=200.0, seed=7,
        churn=(ChurnEvent(at_ms=101.3, node_id=3, up=False),
               ChurnEvent(at_ms=401.3, node_id=3, up=True))))


def test_a_pong_from_before_a_churn_down_does_not_revive_the_node(monkeypatch):
    """The ping sent at 100 ms is answered before node 3 goes down, and its
    pong lands after the churn notice. That pong answers a probe the notice
    closed, so no unit marks node 3 up before it comes back."""
    marks = []
    mark = MembershipUnit.mark_availability

    def noting(mmu, node_id, up):
        marks.append((mmu.env.now_us(), node_id, up))
        mark(mmu, node_id, up)

    monkeypatch.setattr(MembershipUnit, "mark_availability", noting)
    run_with_node_3_down_off_the_ping_grid()
    assert (101_300, 3, False) in marks and (401_300, 3, True) in marks
    assert [t for t, node, up in marks if node == 3 and up and t < 401_300] == []


def test_a_probe_sent_while_a_node_was_down_is_no_miss_once_it_is_back(
        monkeypatch):
    """The ping sent at 400 ms is dropped at node 3, which is down. The
    churn notice at 401.3 ms that brings node 3 back closes that probe, so
    no miss is charged to node 3 while it is up."""
    misses = []
    miss = MembershipUnit.note_missed_ping

    def noting(mmu, node_id):
        misses.append((mmu.env.now_us(), node_id))
        miss(mmu, node_id)

    monkeypatch.setattr(MembershipUnit, "note_missed_ping", noting)
    run_with_node_3_down_off_the_ping_grid()
    assert [t for t, node in misses
            if node == 3 and not 101_300 <= t < 401_300] == []


def probed(rounds: int):
    """A unit whose probes ran `rounds` rounds with no answer, and the
    (target, message) pairs it sent."""
    mmu, _ = make_mmu()
    net, sent = mmu.env.net, []
    net.register(2, lambda *args: None)
    mmu.start_probes(lambda dst, msg: sent.append((dst, msg)))
    net.run_until(mmu.config.ping_period_ms * rounds + 1.0)
    return mmu, sent


def answer(mmu: MembershipUnit, src: int, ping, sent_at_us=None) -> None:
    mmu.on_pong(src, Pong(1, src, ping.seq, ping.sent_at_us
                          if sent_at_us is None else sent_at_us))


def test_a_node_marked_down_by_missed_pings_comes_back_when_it_answers():
    """`ping_miss_limit` unanswered probe rounds leave every target up and
    one more takes every one down; a pong that answers an older round is
    no evidence, and one that answers the latest brings the node back."""
    mmu, _ = probed(MmuConfig().ping_miss_limit)
    assert all(s.up for s in mmu.status.values())
    mmu, sent = probed(MmuConfig().ping_miss_limit + 1)
    assert [n for n, s in mmu.status.items() if s.up] == [2]
    first, *_, last = [msg for dst, msg in sent if dst == 8]
    for ping, up in ((first, False), (last, True)):
        answer(mmu, 8, ping)
        assert mmu.status[8].up is up


def test_a_probe_round_sends_one_ping_to_every_target():
    mmu, sent = probed(2)
    first, second = sent[:7], sent[7:]
    for round_ in (first, second):
        assert [dst for dst, _ in round_] == [1, 3, 4, 5, 6, 7, 8]
        ping = round_[0][1]
        assert all(msg is ping for _, msg in round_)
        assert {bytes(msg.encode()) for _, msg in round_} == {
            bytes(ping.encode())}
    assert first[0][1].seq != second[0][1].seq
    assert {s.probe for n, s in mmu.status.items() if n != 2} == {
        second[0][1].seq}


def test_a_pong_times_its_round_trip_from_the_units_own_send_time():
    """A pong that echoes a later send time than the round's (here its own
    arrival time) reports no shorter round trip: the unit times it from
    when it sent the round."""
    mmu, sent = probed(1)
    dst, ping = sent[-1]
    net = mmu.env.net
    net.run_until(net.now + 9.0)
    answer(mmu, dst, ping, sent_at_us=mmu.env.now_us())
    rtt = (mmu.env.now_us() - ping.sent_at_us) / 1000.0
    assert rtt > 9.0
    assert mmu.status[dst].rtt_ewma_ms == pytest.approx(rtt)


@pytest.mark.parametrize("up", [False, True])
def test_a_churn_notice_closes_the_members_open_round(up):
    mmu, sent = probed(1)
    net = mmu.env.net
    if up:
        net.set_up(8, False)
    net.set_up(8, up)
    assert mmu.status[8].probe is None
    answer(mmu, 8, sent[-1][1])
    assert not mmu.status[8].have_rtt and mmu.status[8].up is up
