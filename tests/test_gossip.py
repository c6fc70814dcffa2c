"""Gossip dissemination against an independent breadth-first oracle.

Agents are wired through a synchronous FIFO queue, so delivery order is
exactly breadth-first and reachability must equal the set of nodes within
graph distance lifetime of the proposer.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

from conftest import certify_entry, commit_window, make_batch, make_booth, make_pool
from vguard import gossip, harness
from vguard.gossip import GossipAgent
from vguard.messages import (CommitMsg, GossipAck, GossipMsg, TraverseHop,
                             traverse_digest)
from vguard.netsim import Network, NodeEnv, SimConfig
from vguard.storage import RetentionPolicy, StorageMaster


class Mesh:
    """Synchronous message fabric between gossip agents, whose counts go
    to the tally of a network that carries none of their messages."""

    def __init__(self):
        self.agents: dict[int, GossipAgent] = {}
        self.queue: deque = deque()
        self.net = Network(SimConfig())

    def attach(self, node_id: int, registry, key, peers, lifetime,
               storage=None) -> GossipAgent:
        agent = GossipAgent(
            env=NodeEnv(self.net, node_id), registry=registry, key=key,
            peers=peers, lifetime=lifetime, storage=storage,
            send=lambda dst, msg, src=node_id: self.queue.append(
                (src, dst, msg)))
        self.agents[node_id] = agent
        return agent

    def run(self) -> None:
        while self.queue:
            src, dst, msg = self.queue.popleft()
            agent = self.agents.get(dst)
            if agent is None:
                continue
            if isinstance(msg, GossipMsg):
                agent.handle_gossip(src, msg)
            else:
                agent.handle_ack(src, msg)


def bfs_depths(peers: dict[int, list[int]], root: int) -> dict[int, int]:
    """Independent shortest-hop map over the directed peer graph."""
    depths = {root: 0}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        for nxt in peers.get(node, []):
            if nxt not in depths:
                depths[nxt] = depths[node] + 1
                frontier.append(nxt)
    return depths


@pytest.fixture(scope="module")
def committed():
    pool = make_pool(list(range(1, 15)), seed=41, proposer_id=1, pivot_id=2)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    def commit_at(ts: int):
        entry = certify_entry(pool, booth, ts // 100_000,
                              make_batch(pool, start_seq=ts))
        record, tx = commit_window(pool, booth, ts, 100_000, [entry])
        msg = CommitMsg(instance_id=1, sender=1, window_start_us=ts,
                        booth_hash=record.booth_hash,
                        cert=record.cert, tx_hash=record.tx_hash)
        return msg, tx
    return pool, commit_at


TREE = {1: [2, 3, 4], 2: [5, 6], 3: [7, 8], 4: [9, 10], 5: [11]}


def build_mesh(pool, peers: dict[int, list[int]], lifetime: int) -> Mesh:
    mesh = Mesh()
    for node_id in pool.keys:
        mesh.attach(node_id, pool.registry, pool.keys[node_id],
                    peers.get(node_id, []), lifetime)
    return mesh


def stored_nodes(mesh: Mesh, root: int) -> set[int]:
    return {n for n in mesh.agents
            if n != root and mesh.net.events["stored", n] > 0}


def counted(agent: GossipAgent, event: str) -> int:
    return agent.events[event, agent.node_id]


def drops(agent: GossipAgent) -> dict[str, int]:
    """What the agent refused, by reason."""
    return {reason: n for (node, reason), n in agent.drops.items()
            if node == agent.node_id}


def test_lifetime_two_reaches_exactly_depth_two(committed):
    pool, commit_at = committed
    commit, tx = commit_at(0)
    mesh = build_mesh(pool, TREE, lifetime=2)
    mesh.agents[2].expect_acks(commit.commit_hash())
    mesh.agents[1].init_gossip(commit, tx, exclude=set())
    mesh.run()

    depths = bfs_depths(TREE, 1)
    expected = {n for n, d in depths.items() if 1 <= d <= 2}
    assert stored_nodes(mesh, 1) == expected
    assert 11 not in stored_nodes(mesh, 1)      # depth 3: budget exhausted
    # every stored node acked the proposer; all but the pivot also ack it
    assert counted(mesh.agents[1], "acks_received") == len(expected)
    assert counted(mesh.agents[2], "acks_received") == len(expected) - 1
    assert {n for n in mesh.agents if counted(mesh.agents[n], "acks_sent")} \
        == expected


@pytest.mark.parametrize("lifetime", [1, 2, 3])
def test_random_topologies_match_bfs_oracle(committed, lifetime):
    pool, commit_at = committed
    rng = np.random.default_rng(100 + lifetime)
    node_ids = sorted(pool.keys)
    for trial in range(5):
        peers = {
            n: list(rng.choice([m for m in node_ids if m != n],
                               size=rng.integers(2, 5), replace=False))
            for n in node_ids
        }
        commit, tx = commit_at((trial + lifetime * 10) * 100_000)
        mesh = build_mesh(pool, peers, lifetime=lifetime)
        mesh.agents[2].expect_acks(commit.commit_hash())
        mesh.agents[1].init_gossip(commit, tx, exclude=set())
        mesh.run()
        depths = bfs_depths(peers, 1)
        expected = {n for n, d in depths.items() if 1 <= d <= lifetime}
        assert stored_nodes(mesh, 1) == expected, \
            f"trial {trial} lifetime {lifetime}"


def test_init_exclusions(committed):
    pool, commit_at = committed
    commit, tx = commit_at(10_000_000)
    peers = {1: [5, 2, 1, 3, 4]}
    mesh = build_mesh(pool, peers, lifetime=1)
    assert mesh.agents[1].peers == [2, 3, 4, 5]  # sorted, never itself
    mesh.agents[1].init_gossip(commit, tx, exclude={2, 3})
    mesh.run()
    assert stored_nodes(mesh, 1) == {4, 5}


def test_zero_lifetime_disables_gossip():
    result = harness.run(harness.RunSpec(pool=8, lambda0=0, duration_ms=50.0,
                                         grace_ms=50.0, rate_per_s=100.0,
                                         seed=2))
    assert [n for n, runtime in result.runtimes.items()
            if runtime.gossip is not None] == []


def test_duplicate_commit_rejected_once_seen(committed):
    pool, commit_at = committed
    commit, tx = commit_at(30_000_000)
    mesh = build_mesh(pool, {1: [2]}, lifetime=2)
    agent = mesh.agents[2]
    h = commit.commit_hash()
    hop = TraverseHop(lifetime=2,
                      sig=pool.keys[1].sign(traverse_digest(h, 2)), node_id=1)
    msg = GossipMsg(instance_id=1, sender=1, commit=commit.certified(), tx=tx,
                    traverse=(hop,))
    assert agent.handle_gossip(1, msg)
    assert not agent.handle_gossip(1, msg)
    assert counted(agent, "stored") == 1
    assert drops(agent) == {"gossip.duplicate": 1}


def test_traverse_rejection_matrix(committed):
    pool, commit_at = committed
    commit, tx = commit_at(40_000_000)
    h = commit.commit_hash()

    def hop(lifetime: int, signer: int, sig: bytes | None = None):
        return TraverseHop(
            lifetime=lifetime,
            sig=pool.keys[signer].sign(traverse_digest(h, lifetime))
            if sig is None else sig,
            node_id=signer)

    def fresh_agent():
        mesh = build_mesh(pool, {}, lifetime=3)
        return mesh.agents[5]

    def msg(*hops):
        return GossipMsg(instance_id=1, sender=hops[-1].node_id,
                         commit=commit.certified(), tx=tx, traverse=hops)

    agent = fresh_agent()
    assert not agent.handle_gossip(1, GossipMsg(
        instance_id=1, sender=1, commit=commit.certified(), tx=tx,
        traverse=()))
    assert drops(agent) == {"gossip.malformed": 1}

    # a forwarder inflated its remaining budget
    agent = fresh_agent()
    assert not agent.handle_gossip(2, msg(hop(2, 1), hop(3, 2)))
    assert drops(agent) == {"gossip.non_monotone_lifetime": 1}

    # equal budget is also not a decrease
    agent = fresh_agent()
    assert not agent.handle_gossip(2, msg(hop(2, 1), hop(2, 2)))
    assert drops(agent) == {"gossip.non_monotone_lifetime": 1}

    # exhausted budget cannot be replayed
    agent = fresh_agent()
    assert not agent.handle_gossip(1, msg(hop(0, 1)))
    assert drops(agent) == {"gossip.non_monotone_lifetime": 1}

    # hop signed over a different lifetime than claimed
    agent = fresh_agent()
    bad = TraverseHop(lifetime=2,
                      sig=pool.keys[1].sign(traverse_digest(h, 3)), node_id=1)
    assert not agent.handle_gossip(1, msg(bad))
    assert drops(agent) == {"gossip.bad_sig": 1}

    # forwarder unknown to the registry
    agent = fresh_agent()
    ghost = TraverseHop(lifetime=2, sig=b"\x00" * 64, node_id=999)
    assert not agent.handle_gossip(1, msg(hop(3, 1), ghost))
    assert drops(agent) == {"gossip.unknown_booth": 1}

    assert counted(agent, "stored") == 0


def test_payload_must_match_committed_hash(committed):
    pool, commit_at = committed
    commit, _ = commit_at(50_000_000)
    _, other_tx = commit_at(60_000_000)
    mesh = build_mesh(pool, {}, lifetime=2)
    agent = mesh.agents[3]
    h = commit.commit_hash()
    hop = TraverseHop(lifetime=2,
                      sig=pool.keys[1].sign(traverse_digest(h, 2)), node_id=1)
    wrong = GossipMsg(instance_id=1, sender=1, commit=commit.certified(),
                      tx=other_tx, traverse=(hop,))
    assert not agent.handle_gossip(1, wrong)
    assert drops(agent) == {"gossip.bad_hash": 1}


def test_seen_lru_evicts_and_allows_retry(committed, monkeypatch):
    pool, commit_at = committed
    monkeypatch.setattr(gossip, "SEEN_CAP", 3)
    mesh = build_mesh(pool, {}, lifetime=2)
    agent = mesh.agents[4]

    def deliver(ts: int) -> bool:
        commit, tx = commit_at(ts)
        h = commit.commit_hash()
        hop = TraverseHop(lifetime=2,
                          sig=pool.keys[1].sign(traverse_digest(h, 2)),
                          node_id=1)
        return agent.handle_gossip(
            1, GossipMsg(instance_id=1, sender=1, commit=commit.certified(),
                         tx=tx, traverse=(hop,)))

    stamps = [70_000_000, 70_100_000, 70_200_000, 70_300_000]
    for ts in stamps:
        assert deliver(ts)
    assert len(agent.seen) == 3
    assert deliver(stamps[0])        # evicted, so a retry stores again
    assert counted(agent, "stored") == 5


def test_ack_bookkeeping(committed):
    pool, commit_at = committed
    commit, tx = commit_at(80_000_000)
    h = commit.commit_hash()
    mesh = build_mesh(pool, {1: [3, 4]}, lifetime=1)
    root, bystander = mesh.agents[1], mesh.agents[5]
    root.init_gossip(commit, tx, exclude=set())
    mesh.run()
    assert counted(root, "acks_received") == 2
    # each storing node acks the proposer and the pivot
    assert [counted(mesh.agents[n], "acks_sent") for n in (3, 4, 5)] == [2, 2, 0]
    # acks for commits never initiated here are rejected
    assert not bystander.handle_ack(
        3, GossipAck(instance_id=1, sender=3, commit_hash=h))
    assert drops(bystander) == {"gossip.unknown_commit": 1}
    assert h in root.ackable and h not in bystander.ackable


def test_gossip_lands_in_gossiper_storage(committed):
    pool, commit_at = committed
    commit, tx = commit_at(90_000_000)
    mesh = Mesh()
    storage = StorageMaster(RetentionPolicy(temp_ttl_us=10**9))
    agent = mesh.attach(6, pool.registry, pool.keys[6], [], 2,
                        storage=storage)
    h = commit.commit_hash()
    hop = TraverseHop(lifetime=1,
                      sig=pool.keys[1].sign(traverse_digest(h, 1)), node_id=1)
    assert agent.handle_gossip(
        1, GossipMsg(instance_id=1, sender=1, commit=commit.certified(), tx=tx,
                     traverse=(hop,)))
    smi = storage.get(1)
    assert tx.tx_hash in smi.temp and tx.tx_hash not in smi.perm


def test_gossip_stores_at_the_time_the_commit_arrived(monkeypatch):
    """In a pool-8, lifetime-2 run every commit a gossiper stores is stored
    at the simulated time it arrived, never at time 0: storage ages its
    entries from that time. Its record is the certified commit the gossip
    carried."""
    envs, arrived = {}, {}
    init, handle = GossipAgent.__init__, GossipAgent.handle_gossip

    def keeping_env(agent, env, *args, **kwargs):
        init(agent, env, *args, **kwargs)
        envs[agent.node_id] = env

    def noting_arrival(agent, src, msg):
        now = envs[agent.node_id].now_us()
        stored = handle(agent, src, msg)
        if stored:
            key = (agent.node_id, msg.instance_id, msg.tx.tx_hash)
            arrived.setdefault(key, (now, msg.commit))
        return stored

    monkeypatch.setattr(GossipAgent, "__init__", keeping_env)
    monkeypatch.setattr(GossipAgent, "handle_gossip", noting_arrival)
    result = harness.run(harness.RunSpec(pool=8, lambda0=2, duration_ms=400.0,
                                         grace_ms=400.0, rate_per_s=100.0,
                                         seed=2))
    items = {(node, instance_id, item.tx_hash): item
             for node, runtime in result.runtimes.items()
             for instance_id, smi in runtime.storage.instances.items()
             for item in smi.temp.values()}
    stored = {key: (item.stored_at_us, item.record)
              for key, item in items.items()}
    assert stored and stored == arrived
    assert all(item.stored_at_us > 0 for item in items.values())


def test_gossip_frames_of_the_pool8_run_are_pinned(monkeypatch):
    """Every `GossipMsg` frame the golden pool-8, lifetime-2 run sends,
    hashed in send order as its 4-byte length and then its bytes: the
    gossip wire is pinned byte for byte, which no golden digest does (no
    golden run traces with gossip on)."""
    from test_golden import SPECS

    send, h, frames = Network.send, hashlib.sha256(), []

    def hashing(net, src, dst, payload, *args, **kwargs):
        if payload[1] == GossipMsg.TAG:
            frames.append(payload)
            h.update(len(payload).to_bytes(4, "big") + payload)
        return send(net, src, dst, payload, *args, **kwargs)

    monkeypatch.setattr(Network, "send", hashing)
    harness.run(SPECS["pool8_gossip2"])
    assert len(frames) == 28
    assert h.hexdigest() == \
        "31f9686439cb0818eb41f77d616d353ee62b3cfa32626b4e7552c484a07bae6f"

