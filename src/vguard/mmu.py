"""Membership management: availability tracking and the booth queue.

The unit watches the node pool through ping latencies and explicit churn
notices, keeps a short queue of pre-provisioned booths sorted by their
worst-member smoothed round-trip time, and serves the head booth to
ordering and consensus instances. Booths are immutable once served; when
enough members fall away the booth is dropped from the queue and listeners
(in-flight instances pinned to it) are told to abort and re-book. So the
queue holds only valid booths: a booth turns invalid only inside
`mark_availability`, which drops it before any listener or caller runs.

Booth composition slides a window over the latency-sorted vehicle list, so
adjacent queued booths overlap in membership; the proposer and the pivot
are mandatory members of every booth. Profiles are cached by member set,
so a booth that re-forms after a flap keeps its hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from .booths import BoothProfile, build_profile
from .crypto import Identity
from .errors import AT_MOST_ONE, POSITIVE, InsufficientMembers, UnknownNode
from .netsim import NodeEnv


@dataclass
class MmuConfig:
    queue_depth: int = field(default=4, metadata=POSITIVE)
    ewma_alpha: float = field(default=0.2, metadata=AT_MOST_ONE)
    ping_period_ms: float = field(default=20.0, metadata=POSITIVE)
    ping_miss_limit: int = field(default=3, metadata=POSITIVE)


@dataclass
class NodeStatus:
    up: bool = True
    rtt_ewma_ms: float = 0.0
    have_rtt: bool = False
    missed_pings: int = 0


_RTT = attrgetter("rtt_ewma_ms")


@dataclass
class QueuedBooth:
    profile: BoothProfile
    statuses: list[NodeStatus]          # its members', in member order

    def latency_ms(self) -> float:
        """Worst smoothed round trip among the booth's members."""
        return max(map(_RTT, self.statuses))

    def valid(self) -> bool:
        return sum(not s.up for s in self.statuses) < max(self.profile.fault_budget, 1)


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
        self.queue: list[QueuedBooth] = []
        self._profile_cache: dict[frozenset, BoothProfile] = {}
        self._available_listeners: list[Callable[[], None]] = []
        self._invalidated_listeners: list[Callable[[bytes], None]] = []
        self._last_served: Optional[bytes] = None
        self.refill()

    # -- listeners ---------------------------------------------------------

    def on_booth_available(self, fn: Callable[[], None]) -> None:
        self._available_listeners.append(fn)

    def on_booth_invalidated(self, fn: Callable[[bytes], None]) -> None:
        self._invalidated_listeners.append(fn)

    def drop_listeners(self) -> None:
        self._available_listeners.clear()
        self._invalidated_listeners.clear()

    # -- availability updates ---------------------------------------------

    def mark_availability(self, node_id: int, up: bool) -> None:
        status = self.status.get(node_id)
        if status is None:
            raise UnknownNode(f"node {node_id} is not in this pool")
        if status.up == up:
            return
        status.up = up
        status.missed_pings = 0
        self._purge_and_refill()

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

    def latency_of(self, profile: BoothProfile) -> float:
        """Worst smoothed round trip among the booth's members."""
        return max(self.status[m].rtt_ewma_ms for m in profile.member_ids
                   if m in self.status)

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
        first. Raises InsufficientMembers when one booth cannot be seated."""
        size = self.booth_size
        anchors_up = (self.status[self.proposer_id].up
                      and self.status[self.pivot_id].up)
        vehicles = self._candidate_vehicles()
        need = size - 2
        if not anchors_up or len(vehicles) < need:
            raise InsufficientMembers(
                f"cannot seat a booth of {size}: pivot/proposer down or "
                f"only {len(vehicles)} vehicles up")
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
        try:
            sets = self._compositions()
        except InsufficientMembers:
            sets = []
        queued = {frozenset(b.profile.member_ids) for b in self.queue}
        had_none = not self.queue
        filled = len(queued)
        for members in sets:
            if filled >= self.config.queue_depth:
                break
            if members in queued:
                continue
            profile = self._provision(members)
            self.queue.append(QueuedBooth(
                profile, [self.status[m] for m in profile.member_ids]))
            queued.add(members)
            filled += 1
        self._resort()
        if had_none and self.queue:
            for fn in list(self._available_listeners):
                fn()

    def _purge_and_refill(self) -> None:
        invalid = [b for b in self.queue if not b.valid()]
        self.queue = [b for b in self.queue if b.valid()]
        for booth in invalid:
            for fn in list(self._invalidated_listeners):
                fn(booth.profile.booth_hash)
        self.refill()

    def _resort(self) -> None:
        # stable: ties keep order
        self.queue.sort(key=QueuedBooth.latency_ms)

    # -- serving booths ----------------------------------------------------

    def current_booth(self) -> Optional[BoothProfile]:
        """Head of the queue, or None when it is empty (callers park their
        work and resume on the availability callback)."""
        if not self.queue:
            return None
        profile = self.queue[0].profile
        if profile.booth_hash != self._last_served:
            self.env.events["booth_changes", self.instance_id] += 1
            self._last_served = profile.booth_hash
        return profile
