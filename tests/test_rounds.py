"""The proposer's quorum-round lifecycle, shared by ordering and consensus.

Each test drives both coordinators through the same steps: work parked
while no booth is up, a lost booth, a timeout, a spent retry budget and the
replies that reach a closed round. The membership unit is a stand-in whose
head booth a test sets, and timers fire only when a test fires them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import certify_entry, make_batch, make_booth, make_pool
from vguard.consensus import ConsensusCoordinator
from vguard.crypto import make_partial
from vguard.messages import CommitReply, OrderReply
from vguard.netsim import CostMeter, Timer
from vguard.node import ProtocolConfig
from vguard.ordering import OrderingCoordinator
from test_ordering import make_ctx, rejects

DELTA = 100_000


class TimerEnv:
    """Engine-facing clock, meter and tally whose timers a test fires."""

    def __init__(self):
        self.t_us = 0
        self.meter = CostMeter()
        self.drops: Counter = Counter()
        self.events: Counter = Counter()
        self.timers: list[tuple[Timer, object]] = []

    def now_us(self) -> int:
        return self.t_us

    def after(self, delay_ms: float, fn) -> Timer:
        timer = Timer()
        self.timers.append((timer, fn))
        return timer

    def fire(self) -> None:
        """Run every timer armed so far that is not cancelled."""
        due, self.timers = self.timers, []
        for timer, fn in due:
            if not timer.cancelled:
                fn()


class Mmu:
    """A membership unit whose head booth the test sets; losing or
    restoring a booth calls the listeners as the real unit does."""

    def __init__(self, booth):
        self.booth = booth
        self.lost: list = []
        self.available: list = []

    def on_booth_invalidated(self, fn) -> None:
        self.lost.append(fn)

    def on_booth_available(self, fn) -> None:
        self.available.append(fn)

    def current_booth(self):
        return self.booth

    def latency_of(self, booth) -> float:
        return 1.0

    def lose(self, then=None) -> None:
        """Invalidate the head booth; `then` becomes the head."""
        gone, self.booth = self.booth, then
        for fn in list(self.lost):
            fn(gone.booth_hash)

    def restore(self, booth) -> None:
        self.booth = booth
        for fn in list(self.available):
            fn()


@pytest.fixture
def world():
    pool = make_pool([1, 2, 3, 4, 5], seed=41, proposer_id=1, pivot_id=2)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    other = make_booth(pool, [1, 2, 3, 5], proposer_id=1, pivot_id=2)
    return pool, booth, other


class Ordering:
    """Ordering's side of the lifecycle: keys are fresh ordering ids."""

    cls = OrderingCoordinator
    gave_up = "abandoned_batches"

    @staticmethod
    def feed(ctx, coord, pool, booth, n: int) -> list[int]:
        for i in range(n):
            coord.submit(make_batch(pool, size=2, start_seq=10 * i))
        return list(range(1, n + 1))

    @staticmethod
    def reply(src: int, key: int, partial) -> OrderReply:
        return OrderReply(instance_id=1, sender=src, ordering_id=key,
                          partial=partial)

    @staticmethod
    def released(ctx, key: int) -> bool:
        return key in ctx.log


class Consensus:
    """Consensus's side of the lifecycle: keys are window timestamps."""

    cls = ConsensusCoordinator
    gave_up = "stalled_windows"

    @staticmethod
    def feed(ctx, coord, pool, booth, n: int) -> list[int]:
        for i in range(n):
            ctx.log.append(certify_entry(
                pool, booth, i + 1, make_batch(pool, size=2, start_seq=10 * i),
                appended_at_us=i * DELTA))
        ctx.ledger.note_booth(booth)
        ctx.env.t_us = n * DELTA
        coord._tick()
        return [i * DELTA for i in range(n)]

    @staticmethod
    def reply(src: int, key: int, partial) -> CommitReply:
        return CommitReply(instance_id=1, sender=src, window_start_us=key,
                           partial=partial)

    @staticmethod
    def released(ctx, key: int) -> bool:
        return ctx.ledger.has_window(key)


@pytest.fixture(params=[Ordering, Consensus], ids=["ordering", "consensus"])
def side(request):
    return request.param


def coordinator(world, side, booth, max_retries: int = 50):
    pool = world[0]
    ctx, sent = make_ctx(pool, node_id=1, delta_us=DELTA)
    ctx.env = TimerEnv()
    ctx.config = ProtocolConfig(max_retries=max_retries)
    ctx.mmu = Mmu(booth)
    return ctx, side.cls(ctx), sent


def answer(world, side, coord, key: int, *signers: int) -> None:
    """Countersign the open round `key` from each of `signers`."""
    pool = world[0]
    digest = coord.rounds[key].cert_digest
    for src in signers:
        coord.handle_reply(src, side.reply(src, key,
                                           make_partial(pool.keys[src], digest)))


def test_work_parked_without_a_booth_resumes_in_key_order(world, side):
    pool, booth, _ = world
    ctx, coord, sent = coordinator(world, side, booth=None)
    keys = side.feed(ctx, coord, pool, booth, 3)
    assert coord.rounds == {} and sent == []
    assert sorted(coord.parked) == keys
    ctx.mmu.restore(booth)
    assert list(coord.rounds) == keys            # opened in key order
    assert coord.parked == {}
    assert all(rnd.booth is booth for rnd in coord.rounds.values())
    for key in keys:
        answer(world, side, coord, key, 2, 3)
    assert all(side.released(ctx, key) for key in keys)


def test_a_lost_booth_retries_in_the_new_head_booth(world, side):
    pool, booth, other = world
    ctx, coord, sent = coordinator(world, side, booth)
    [key] = side.feed(ctx, coord, pool, booth, 1)
    answer(world, side, coord, key, 3)            # not yet a quorum
    ctx.mmu.lose(then=other)
    [(again, rnd)] = coord.rounds.items()
    assert rnd.booth is other and rnd.attempt == 1 and rnd.replies == {}
    if side is Ordering:
        assert again == key + 1 and coord.retired_ids == {key}
    else:
        assert again == key and rnd.demoted == frozenset()   # nobody's fault
    assert {dst for dst, _, _ in sent[-3:]} == set(other.validators())
    answer(world, side, coord, again, 2, 5)
    assert side.released(ctx, again)


def test_a_timeout_retries_and_consensus_demotes_the_silent(world, side):
    pool, booth, _ = world
    ctx, coord, _ = coordinator(world, side, booth)
    [key] = side.feed(ctx, coord, pool, booth, 1)
    answer(world, side, coord, key, 2)            # the pivot alone replied
    ctx.env.fire()
    [(again, rnd)] = coord.rounds.items()
    assert rnd.booth is booth and rnd.attempt == 1
    if side is Ordering:
        assert again == key + 1 and coord.retired_ids == {key}
    else:
        assert again == key and rnd.demoted == {3, 4}


def test_a_timer_that_runs_after_its_round_closed_does_nothing(world, side):
    """A timer that fires while its node's CPU is busy runs only when the
    CPU frees up, and by then its round may be certified or reopened."""
    pool, booth, other = world
    ctx, coord, _ = coordinator(world, side, booth)
    first, _ = side.feed(ctx, coord, pool, booth, 2)
    late = [fn for _, fn in ctx.env.timers]
    answer(world, side, coord, first, 2, 3)       # certified
    ctx.mmu.lose(then=other)                      # reopened or retired
    reopened = dict(coord.rounds)
    for fn in late:
        fn()
    assert coord.rounds == reopened
    assert side.released(ctx, first)
    assert all(rnd.attempt == 1 for rnd in reopened.values())


@pytest.mark.parametrize("cause", ["timeout", "booth lost"])
def test_a_spent_budget_gives_the_work_up(world, side, cause):
    """Every try counts against `max_retries`, whatever ended it."""
    pool, booth, _ = world
    ctx, coord, _ = coordinator(world, side, booth, max_retries=3)
    side.feed(ctx, coord, pool, booth, 1)
    for _ in range(4):
        assert len(coord.rounds) == 1
        if cause == "timeout":
            ctx.env.fire()
        else:
            ctx.mmu.lose(then=booth)
    assert coord.rounds == {}
    assert ctx.env.events[side.gave_up, 1] == 1
    if side is Consensus:
        assert rejects(ctx) == {"expired": 1}


def test_sixty_lost_booths_spend_the_budget_of_fifty(world, side):
    """A round whose booth keeps vanishing is given up after max_retries
    tries, as one that keeps timing out is."""
    pool, booth, _ = world
    ctx, coord, _ = coordinator(world, side, booth)
    side.feed(ctx, coord, pool, booth, 1)
    for _ in range(60):
        if coord.rounds:
            ctx.mmu.lose(then=booth)
    assert coord.rounds == {}
    assert ctx.env.events[side.gave_up, 1] == 1


def test_replies_to_a_closed_round_are_late_or_stale(world, side):
    """A reply for a certified round counts late_reply; one for a round
    that never was, or that closed uncertified, counts stale."""
    pool, booth, other = world
    ctx, coord, _ = coordinator(world, side, booth, max_retries=0)
    done, given_up = side.feed(ctx, coord, pool, booth, 2)
    digests = {key: rnd.cert_digest for key, rnd in coord.rounds.items()}
    answer(world, side, coord, done, 2, 3)
    ctx.mmu.lose(then=other)                      # budget 0: given up
    assert coord.rounds == {}
    never = given_up + 7 * (given_up - done)
    for key, counted in ((done, "late_reply"), (given_up, "stale"),
                         (never, "stale")):
        ctx.env.drops.clear()
        partial = make_partial(pool.keys[4], digests.get(key, b"\x00" * 32))
        coord.handle_reply(4, side.reply(4, key, partial))
        assert rejects(ctx) == {counted: 1}, key


def test_a_given_up_window_does_not_hold_back_later_windows(world):
    """A window given up settles as skipped, not as covered: the windows
    after it still reach the ledger, it never does, and a late reply to it
    counts stale."""
    pool, booth, _ = world
    ctx, coord, _ = coordinator(world, Consensus, booth, max_retries=0)
    stalled, later = Consensus.feed(ctx, coord, pool, booth, 2)
    digest = coord.rounds[stalled].cert_digest
    (_, times_out), _ = ctx.env.timers            # the two windows' timers
    times_out()                                   # budget 0: given up
    assert list(coord.rounds) == [later]
    assert ctx.env.events["stalled_windows", 1] == 1
    answer(world, Consensus, coord, later, 2, 3)
    assert ctx.ledger.has_window(later)
    assert not ctx.ledger.has_window(stalled)
    assert stalled not in ctx.ledger.covered_empty
    ctx.env.drops.clear()
    coord.handle_reply(4, Consensus.reply(4, stalled,
                                          make_partial(pool.keys[4], digest)))
    assert rejects(ctx) == {"stale": 1}
