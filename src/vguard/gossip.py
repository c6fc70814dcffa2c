"""Lifetime-bounded gossip of committed windows to off-booth vehicles.

Commits travel outside consensus booths over a fixed peer overlay on the
side radio channel. A gossip carries the commit as a record of its
certified fields (`CertifiedCommit`), not as a commit message, beside the
window's transaction and a traverse list: one signed (lifetime,
signature) hop per forwarder, rooted at the proposer. A
receiver stores the commit, stamped with the simulated time it arrived,
only if it has not seen it, every hop signature checks out, lifetimes
strictly decrease along the list, and the last hop still has budget. It
then acks directly to the proposer and the pivot, decrements the budget,
and forwards while budget remains. The seen set is an LRU over commit
hashes and records only stored commits, so a rejected message can be
retried later with a fresh traverse.

An agent counts what it stores, forwards and acks in the run's `events`,
and what it refuses in `drops` under a `gossip.` reason, not yet reported.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from .crypto import KeyService, SigningKey, verify_raw
from .errors import RejectReason, UnknownNode
from .ledger import CommitRecord
from .messages import CommitMsg, GossipAck, GossipMsg, TraverseHop, traverse_digest
from .netsim import NodeEnv
from .storage import StorageMaster

SEEN_CAP = 10_000           # commit hashes an agent remembers


class GossipAgent:
    def __init__(self, env: NodeEnv, registry: KeyService, key: SigningKey,
                 peers: list[int], lifetime: int,
                 storage: Optional[StorageMaster],
                 send: Callable[[int, object], None]):
        self.node_id = node_id = env.node_id
        self.now_us = env.now_us
        self.drops, self.events = env.drops, env.events
        self.registry = registry
        self.key = key
        self.peers = sorted(p for p in peers if p != node_id)
        self.lifetime = lifetime
        self.storage = storage
        self.send = send
        self.seen: OrderedDict[bytes, bool] = OrderedDict()
        self.ackable: set[bytes] = set()   # commits this agent takes acks for

    # -- origination -------------------------------------------------------

    def init_gossip(self, commit: CommitMsg, tx, exclude: set[int]) -> None:
        """Proposer entry point: push a fresh commit to peers outside the
        consensus booth with the full lifetime budget."""
        certified = commit.certified()
        h = certified.commit_hash()
        self._remember(h)
        self.ackable.add(h)
        hop = TraverseHop(
            lifetime=self.lifetime,
            sig=self.key.sign(traverse_digest(h, self.lifetime)),
            node_id=self.node_id,
        )
        msg = GossipMsg(instance_id=commit.instance_id, sender=self.node_id,
                        commit=certified, tx=tx, traverse=(hop,))
        for peer in self.peers:
            if peer in exclude:
                continue
            self.send(peer, msg)
            self.events["forwarded", self.node_id] += 1

    def expect_acks(self, commit_hash: bytes) -> None:
        """Pivot-side registration so acks for a known commit are accepted."""
        self.ackable.add(commit_hash)

    # -- receive path ------------------------------------------------------

    def handle_gossip(self, src: int, msg: GossipMsg) -> bool:
        h = msg.commit.commit_hash()
        if h in self.seen:
            self.seen.move_to_end(h)
            self._drop(RejectReason.DUPLICATE)
            return False
        if not msg.traverse:
            self._drop(RejectReason.MALFORMED)
            return False
        if not self._traverse_ok(h, msg.traverse):
            return False
        if msg.tx.tx_hash != msg.commit.tx_hash:
            self._drop(RejectReason.BAD_HASH)
            return False

        self._store(msg)
        self._remember(h)
        self.events["stored", self.node_id] += 1
        self._ack(msg, h)

        remaining = max(msg.traverse[-1].lifetime - 1, 0)
        if remaining > 0:
            hop = TraverseHop(lifetime=remaining,
                              sig=self.key.sign(traverse_digest(h, remaining)),
                              node_id=self.node_id)
            out = GossipMsg(instance_id=msg.instance_id, sender=self.node_id,
                            commit=msg.commit, tx=msg.tx,
                            traverse=msg.traverse + (hop,))
            for peer in self.peers:
                if peer == src:
                    continue
                self.send(peer, out)
                self.events["forwarded", self.node_id] += 1
        return True

    def _traverse_ok(self, commit_hash: bytes, hops) -> bool:
        prev = None
        for hop in hops:
            if hop.lifetime <= 0 or (prev is not None and hop.lifetime >= prev):
                self._drop(RejectReason.NON_MONOTONE_LIFETIME)
                return False
            prev = hop.lifetime
            try:
                key = self.registry.verify_key(hop.node_id)
            except UnknownNode:
                self._drop(RejectReason.UNKNOWN_BOOTH)
                return False
            if not verify_raw(key, traverse_digest(commit_hash, hop.lifetime),
                              hop.sig):
                self._drop(RejectReason.BAD_SIG)
                return False
        return True

    def _store(self, msg: GossipMsg) -> None:
        if self.storage is None:
            return
        commit, now_us = msg.commit, self.now_us()
        record = CommitRecord(
            consensus_id=commit.window_start_us,
            booth_hash=commit.booth_hash,
            cert=commit.cert,
            tx_hash=commit.tx_hash,
            committed_at_us=now_us,
        )
        smi = self.storage.get(msg.instance_id)
        smi.register_to_temp(msg.tx, record, now_us)

    def _ack(self, msg: GossipMsg, commit_hash: bytes) -> None:
        proposer = msg.traverse[0].node_id
        targets = {proposer}
        if msg.tx.membership_links:
            targets.add(msg.tx.membership_links[0].booth.pivot_id)
        ack = GossipAck(instance_id=msg.instance_id, sender=self.node_id,
                        commit_hash=commit_hash)
        for dst in sorted(targets):
            if dst != self.node_id:
                self.send(dst, ack)
                self.events["acks_sent", self.node_id] += 1

    def handle_ack(self, src: int, msg: GossipAck) -> bool:
        if msg.commit_hash not in self.ackable:
            self._drop(RejectReason.UNKNOWN_COMMIT)
            return False
        self.events["acks_received", self.node_id] += 1
        return True

    def _drop(self, reason: RejectReason) -> None:
        self.drops[self.node_id, f"gossip.{reason}"] += 1

    def _remember(self, commit_hash: bytes) -> None:
        self.seen[commit_hash] = True
        self.seen.move_to_end(commit_hash)
        while len(self.seen) > SEEN_CAP:
            self.seen.popitem(last=False)
