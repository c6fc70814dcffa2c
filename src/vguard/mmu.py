"""Membership management: liveness probes, availability, the booth queue.

The unit is its proposer's one failure detector: it pings every other
member each period and takes the network's churn notices. A member's
`NodeStatus` is the unit's one record of it: up or down, its smoothed
round trip, its miss streak and its open probe. A probe still unanswered
when the next fires is a miss; enough in a row mark the member down. A
pong is evidence only for the probe it answers: one round-trip sample
(ping sent to pong arrived, so a busy CPU reads as a slow member) that
revives a member misses took down. Any churn notice, down or up, closes
the member's probe: a pong then in flight revives nothing, and a probe
sent while the member was down is no miss once it is back. The unit
keeps a short queue of pre-provisioned booths sorted by their worst-member
smoothed round trip, and serves the head booth to ordering and consensus
instances. Booths are immutable once served; when enough members fall
away the booth is dropped from the queue and listeners (in-flight
instances pinned to it) are told to abort and re-book. So the queue holds
only valid booths: a booth turns invalid only inside `mark_availability`,
which drops it before any listener or caller runs.

Booth composition slides a window over the latency-sorted vehicle list, so
adjacent queued booths overlap in membership; the proposer and the pivot
are mandatory members of every booth. Profiles are cached by member set,
so a booth that re-forms after a flap keeps its hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

from .booths import BoothProfile, build_profile
from .crypto import Identity
from .errors import AT_MOST_ONE, POSITIVE, UnknownNode
from .messages import Ping, Pong
from .netsim import NodeEnv


@dataclass
class MmuConfig:
    """Booth queue depth, round-trip smoothing and ping settings."""

    queue_depth: int = field(default=4, metadata=POSITIVE)
    ewma_alpha: float = field(default=0.2, metadata=AT_MOST_ONE)
    ping_period_ms: float = field(default=20.0, metadata=POSITIVE)
    ping_miss_limit: int = field(default=3, metadata=POSITIVE)


@dataclass
class NodeStatus:
    """One member as its membership unit sees it, and the unit's one record
    of it: up, its RTT, its miss streak, and `probe`, the seq of the probe
    it has not answered yet (None when none is open)."""

    up: bool = True
    rtt_ewma_ms: float = 0.0
    have_rtt: bool = False
    missed_pings: int = 0
    probe: Optional[int] = None


_RTT = attrgetter("rtt_ewma_ms")


class MembershipUnit:
    def __init__(self, instance_id: int, proposer_id: int, pivot_id: int,
                 pool: list[Identity], booth_size: int, config: MmuConfig,
                 env: NodeEnv):
        self.instance_id = instance_id
        self.proposer_id = proposer_id
        self.pivot_id = pivot_id
        self.booth_size = booth_size
        self.pool = {ident.node_id: ident for ident in pool}
        if proposer_id not in self.pool or pivot_id not in self.pool:
            raise UnknownNode("proposer and pivot must be in the pool")
        self.config = config
        self.env = env                  # the proposer's clock and tally
        self.status: dict[int, NodeStatus] = {
            node_id: NodeStatus() for node_id in self.pool}
        self.queue: list[BoothProfile] = []
        self._profile_cache: dict[frozenset, BoothProfile] = {}
        self._available_listeners: list[Callable[[], None]] = []
        self._invalidated_listeners: list[Callable[[bytes], None]] = []
        self._last_served: Optional[bytes] = None
        self._seq = 0
        env.net.on_availability_change(self._churn_notice)
        self.refill()

    # -- listeners ---------------------------------------------------------

    def on_booth_available(self, fn: Callable[[], None]) -> None:
        self._available_listeners.append(fn)

    def on_booth_invalidated(self, fn: Callable[[bytes], None]) -> None:
        self._invalidated_listeners.append(fn)

    def drop_listeners(self) -> None:
        self._available_listeners.clear()
        self._invalidated_listeners.clear()

    # -- liveness probes ---------------------------------------------------

    def start_probes(self, send: Callable[[int, object], None]) -> None:
        """Ping every other pool member each period through `send`."""
        targets = sorted(set(self.pool) - {self.proposer_id})
        self.env.every(self.config.ping_period_ms,
                       partial(self._probe, send, targets))

    def _probe(self, send: Callable, targets: list[int]) -> None:
        now_us = self.env.now_us()
        for target in targets:
            status = self.status[target]
            if status.probe is not None:
                self.note_missed_ping(target)
            self._seq = status.probe = self._seq + 1
            send(target, Ping(instance_id=self.instance_id,
                              sender=self.proposer_id, seq=self._seq,
                              sent_at_us=now_us))

    def on_pong(self, src: int, msg: Pong) -> None:
        """A pong counts only if it answers `src`'s outstanding probe."""
        status = self.status.get(src)
        if status is not None and status.probe == msg.seq:
            status.probe = None
            self.note_rtt(src, (self.env.now_us() - msg.sent_at_us) / 1000.0)

    def _churn_notice(self, node_id: int, up: bool, _now) -> None:
        status = self.status.get(node_id)
        if status is not None:
            status.probe = None
            self.mark_availability(node_id, up)

    # -- availability updates ---------------------------------------------

    def mark_availability(self, node_id: int, up: bool) -> None:
        status = self.status.get(node_id)
        if status is None:
            raise UnknownNode(f"node {node_id} is not in this pool")
        if status.up == up:
            return
        status.up = up
        status.missed_pings = 0
        invalid = [b for b in self.queue if not self.valid(b)]
        self.queue = [b for b in self.queue if self.valid(b)]
        for booth in invalid:
            for fn in list(self._invalidated_listeners):
                fn(booth.booth_hash)
        self.refill()

    def note_rtt(self, node_id: int, rtt_ms: float) -> None:
        """Feed one measured round trip; revives nodes marked down by misses."""
        status = self.status.get(node_id)
        if status is None:
            return
        alpha = self.config.ewma_alpha
        if status.have_rtt:
            status.rtt_ewma_ms = alpha * rtt_ms + (1 - alpha) * status.rtt_ewma_ms
        else:
            status.rtt_ewma_ms = rtt_ms
            status.have_rtt = True
        status.missed_pings = 0
        if not status.up:
            self.mark_availability(node_id, True)
        else:
            self._resort()

    def note_missed_ping(self, node_id: int) -> None:
        status = self.status.get(node_id)
        if status is None or not status.up:
            return
        status.missed_pings += 1
        if status.missed_pings >= self.config.ping_miss_limit:
            self.mark_availability(node_id, False)

    # -- queue maintenance -------------------------------------------------

    def valid(self, profile: BoothProfile) -> bool:
        """Whether fewer of the booth's members are down than its fault
        budget, or than one when the budget is zero."""
        down = sum(not self.status[m].up for m in profile.member_ids)
        return down < max(profile.fault_budget, 1)

    def latency_of(self, profile: BoothProfile) -> float:
        """Worst smoothed round trip among the booth's members."""
        return max(map(_RTT, map(self.status.__getitem__, profile.member_ids)))

    def _candidate_vehicles(self) -> list[int]:
        """Up vehicles sorted by smoothed latency, ties by id."""
        out = [
            node_id for node_id, status in self.status.items()
            if status.up and node_id not in (self.proposer_id, self.pivot_id)
        ]
        out.sort(key=lambda n: (self.status[n].rtt_ewma_ms, n))
        return out

    def _compositions(self) -> list[frozenset]:
        """Sliding-window member sets over the sorted vehicle list, nearest
        first; none when the proposer or the pivot is down or too few
        vehicles are up to seat one booth."""
        if not (self.status[self.proposer_id].up
                and self.status[self.pivot_id].up):
            return []
        vehicles = self._candidate_vehicles()
        need = self.booth_size - 2
        return [
            frozenset([self.proposer_id, self.pivot_id, *vehicles[k:k + need]])
            for k in range(len(vehicles) - need + 1)
        ]

    def _provision(self, members: frozenset) -> BoothProfile:
        profile = self._profile_cache.get(members)
        if profile is None:
            member_ids = sorted(members)
            profile = build_profile(
                members=[self.pool[m] for m in member_ids],
                proposer_id=self.proposer_id, pivot_id=self.pivot_id,
                created_at_us=self.env.now_us(),
            )
            self._profile_cache[members] = profile
        return profile

    def refill(self) -> None:
        queued = {frozenset(b.member_ids) for b in self.queue}
        had_none = not self.queue
        for members in self._compositions():
            if len(self.queue) >= self.config.queue_depth:
                break
            if members not in queued:
                self.queue.append(self._provision(members))
        self._resort()
        if had_none and self.queue:
            for fn in list(self._available_listeners):
                fn()

    def _resort(self) -> None:
        # stable: ties keep order
        self.queue.sort(key=self.latency_of)

    # -- serving booths ----------------------------------------------------

    def current_booth(self) -> Optional[BoothProfile]:
        """Head of the queue, or None when it is empty (callers park their
        work and resume on the availability callback)."""
        if not self.queue:
            return None
        profile = self.queue[0]
        if profile.booth_hash != self._last_served:
            self.env.events["booth_changes", self.instance_id] += 1
            self._last_served = profile.booth_hash
        return profile
