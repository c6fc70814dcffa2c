"""Membership unit: latency smoothing, booth queue discipline, churn."""

from __future__ import annotations

import random

import pytest

from conftest import make_pool
from vguard.errors import InsufficientMembers, UnknownNode
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
    return [frozenset(b.profile.member_ids) for b in mmu.queue]


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
    latencies = [mmu.latency_of(b.profile) for b in mmu.queue]
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
    assert all(head.booth_hash != b.profile.booth_hash for b in mmu.queue)
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
    with pytest.raises(InsufficientMembers):
        compose_booths(mmu)
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
    assert [q.profile.booth_hash for q in a.queue] == \
        [q.profile.booth_hash for q in b.queue]


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
        assert all(b.valid() for b in mmu.queue)
        head = mmu.current_booth()
        assert head is (mmu.queue[0].profile if mmu.queue else None)

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
