"""Wire roundtrips for every message type, plus malformed-input rejection."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, replace
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (certify_entry, commit_window, default_quorum,
                      fresh_profile, make_batch, make_booth, make_pool)
from vguard import booths, codec, crypto, harness, ledger, messages, node
from vguard.booths import BoothProfile
from vguard.codec import Wire, pack
from vguard.consensus import (ConsensusCoordinator, ConsensusRound,
                              PendingCommit, ValidatorConsensus)
from vguard.errors import RejectReason
from vguard.gossip import GossipAgent
from vguard.mmu import MembershipUnit, MmuConfig
from vguard.netsim import Category, Network, NodeEnv, SimConfig
from vguard.ordering import (OrderingCoordinator, OrderingRound, PendingOrder,
                             ValidatorOrdering)
from vguard.storage import StoredTx
from vguard.crypto import (AggregateSignature, Identity, PartialSignature,
                           Role, make_partial)
from vguard.ledger import (CommitRecord, DataBatch, DataEntry, LogEntry,
                           MembershipLink, Transaction, TxEntry,
                           commit_cert_digest, order_cert_digest)
from vguard.messages import (WIRE_VERSION, CertifiedCommit, CommitMsg,
                             CommitReply, GossipAck, GossipMsg, OrderMsg,
                             OrderReply, Ping, Pong, PreCommitSeen,
                             PreCommitUnseen, PreOrder, TraverseHop,
                             decode_message, traverse_digest)


@pytest.fixture(scope="module")
def world():
    pool = make_pool([1, 2, 3, 4], seed=11)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    return pool, booth


def _proposer_partial(pool, booth, payload):
    return make_partial(pool.keys[booth.proposer_id], payload)


def _commit_msg(pool, booth, entries, window_start=0,
                window_len=100_000):
    record, tx = commit_window(pool, booth, window_start, window_len,
                               entries)
    return CommitMsg(instance_id=1, sender=booth.proposer_id,
                     window_start_us=record.consensus_id, booth_hash=record.booth_hash, cert=record.cert,
                     tx_hash=record.tx_hash), tx


def roundtrip(msg):
    """A fresh parse of the bytes, which must equal the message:
    `decode_message` hands back the encoded object itself."""
    raw = msg.encode()
    assert decode_message(raw) is msg
    decoded = messages._parse(raw)
    assert decoded == msg
    return decoded


def test_pre_order_roundtrip(world):
    pool, booth = world
    batch = make_batch(pool, size=2)
    payload = order_cert_digest(5, batch.batch_hash, booth.booth_hash)
    msg = PreOrder(instance_id=1, sender=1, ordering_id=5, batch=batch,
                   batch_hash=batch.batch_hash, booth=booth,
                   booth_hash=booth.booth_hash,
                   proposer_partial=_proposer_partial(pool, booth, payload))
    roundtrip(msg)


def test_order_reply_roundtrip(world):
    pool, booth = world
    payload = order_cert_digest(5, b"\x00" * 32, booth.booth_hash)
    partial = make_partial(pool.keys[3], payload)
    roundtrip(OrderReply(instance_id=1, sender=3, ordering_id=5,
                         partial=partial))


def test_order_msg_roundtrip(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 7, make_batch(pool))
    roundtrip(OrderMsg(instance_id=1, sender=1, ordering_id=7,
                       cert=entry.cert))


def test_pre_commit_seen_roundtrip(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    _, tx = commit_window(pool, booth, 0, 100_000, [entry])
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    msg = PreCommitSeen(instance_id=1, sender=1, window_start_us=0,
                        window_len_us=100_000, tx_hash=tx.tx_hash, first_id=0,
                        last_id=0, booth=booth, booth_hash=booth.booth_hash,
                        proposer_partial=_proposer_partial(pool, booth, payload))
    roundtrip(msg)


def test_pre_commit_unseen_roundtrip(world):
    pool, booth = world
    entries = [certify_entry(pool, booth, i, make_batch(pool))
               for i in range(2)]
    _, tx = commit_window(pool, booth, 0, 100_000, entries)
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    msg = PreCommitUnseen(
        instance_id=1, sender=1, window_start_us=0, window_len_us=100_000,
        tx_hash=tx.tx_hash, tx=tx, booth=booth, booth_hash=booth.booth_hash,
        proposer_partial=_proposer_partial(pool, booth, payload))
    decoded = roundtrip(msg)
    assert decoded.tx.tx_hash == tx.tx_hash
    assert [e.cert for e in decoded.tx.entries] == [e.cert for e in entries]


def test_commit_reply_roundtrip(world):
    pool, booth = world
    payload = commit_cert_digest(0, b"\x11" * 32, booth.booth_hash)
    partial = make_partial(pool.keys[4], payload)
    roundtrip(CommitReply(instance_id=2, sender=4, window_start_us=0,
                          partial=partial))


def test_commit_msg_roundtrip_and_hash(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    msg, _ = _commit_msg(pool, booth, [entry])
    decoded = roundtrip(msg)
    assert decoded.commit_hash() == msg.commit_hash()
    other, _ = _commit_msg(pool, booth, [entry],
                           window_start=100_000)
    assert other.commit_hash() != msg.commit_hash()


def test_gossip_roundtrip(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    commit, tx = _commit_msg(pool, booth, [entry])
    hop_payload = traverse_digest(commit.commit_hash(), 2)
    hop = TraverseHop(lifetime=2, sig=pool.keys[1].sign(hop_payload),
                      node_id=1)
    msg = GossipMsg(instance_id=1, sender=1, commit=commit.certified(),
                    tx=tx, traverse=(hop,))
    decoded = roundtrip(msg)
    assert decoded.traverse[0].lifetime == 2
    assert decoded.commit.commit_hash() == commit.commit_hash()
    roundtrip(GossipAck(instance_id=1, sender=5,
                        commit_hash=commit.commit_hash()))


def test_ping_pong_roundtrip():
    roundtrip(Ping(instance_id=0, sender=2, seq=9, sent_at_us=123_456))
    roundtrip(Pong(instance_id=0, sender=3, seq=9, sent_at_us=123_456))


class _Seq(int):
    """An int subclass: `pack` takes it as an int."""


@pytest.mark.parametrize("cls", [Ping, Pong])
@pytest.mark.parametrize("values", [(0, 0, 0, 0), (1, 2, 3, 4),
                                    (2**64 - 1, 7, 2**63, 1),
                                    (1, 2, _Seq(5), 4)])
def test_all_u64_messages_pack_as_pack_does(cls, values):
    msg = cls(*values)
    assert msg.encode() == bytes((WIRE_VERSION, cls.TAG)) + pack(*values)
    assert messages._parse(msg.encode()) == msg


@pytest.mark.parametrize("bad", [True, False, -1, 2**64, 1.5, None, "text"])
def test_all_u64_messages_reject_what_pack_rejects(bad):
    """At every int and bytes field position of every wire type, nested
    `Wire` values and tuple items included, a value of another type packs,
    or raises, as `pack` does: a bool, an int outside u64, a float or None
    raises `pack`'s error, and text where bytes are due packs as text."""
    positions = 0
    for value in _wire_examples():
        for path, tp in _positions(type(value)):
            if bad == "text" and tp is not bytes:
                continue
            positions += 1
            got = _outcome(lambda: _encoded(_with(value, path, bad)))
            assert got == _outcome(
                lambda: _referenced(_with(value, path, bad))), path
            if bad == "text":
                assert isinstance(got, bytes)
            else:
                assert got == _outcome(lambda: pack(bad)), path
    assert positions >= (30 if bad == "text" else 91)


def test_encoding_a_valid_message_never_calls_pack(monkeypatch):
    """Every message, and each profile, transaction and nested value it
    carries, is packed by its generated encoder alone."""
    fresh = [_rebuilt(msg) for msg in _valid_messages()]

    def no_pack(*fields):
        raise AssertionError("packed field by field")

    for module in (codec, messages, booths, ledger, crypto):
        monkeypatch.setattr(module, "pack", no_pack)
    assert [msg.encode() for msg in fresh] == list(_valid_wires())


def test_decode_rejects_short_and_bad_header():
    with pytest.raises(ValueError):
        decode_message(b"")
    with pytest.raises(ValueError):
        decode_message(bytes((WIRE_VERSION,)))
    with pytest.raises(ValueError):
        decode_message(bytes((WIRE_VERSION + 1, 1)) + b"\x00" * 20)
    with pytest.raises(ValueError):
        decode_message(bytes((WIRE_VERSION, 200)) + b"\x00" * 20)


def test_decode_rejects_truncation_and_trailing(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 3, make_batch(pool))
    raw = OrderMsg(instance_id=1, sender=1, ordering_id=3,
                   cert=entry.cert).encode()
    with pytest.raises(ValueError):
        decode_message(raw[:-1])
    with pytest.raises(ValueError):
        decode_message(raw + b"\x00")


def test_decode_rejects_corrupt_interior(world):
    pool, booth = world
    batch = make_batch(pool, size=2)
    payload = order_cert_digest(5, batch.batch_hash, booth.booth_hash)
    raw = bytearray(PreOrder(
        instance_id=1, sender=1, ordering_id=5, batch=batch,
        batch_hash=batch.batch_hash, booth=booth,
        booth_hash=booth.booth_hash,
        proposer_partial=_proposer_partial(pool, booth, payload)).encode())
    for cut in (len(raw) // 3, len(raw) // 2, len(raw) - 5):
        with pytest.raises(ValueError):
            decode_message(bytes(raw[:cut]))


def test_malformed_bytes_raise_on_every_call(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 4, make_batch(pool))
    raw = OrderMsg(instance_id=1, sender=1, ordering_id=4,
                   cert=entry.cert).encode()
    for bad in (raw[:-1], raw + b"\x00", bytes((WIRE_VERSION, 200)) + raw[2:]):
        for _ in range(3):
            with pytest.raises(ValueError):
                decode_message(bad)
    assert decode_message(raw).ordering_id == 4


def test_decode_goes_by_reference_and_memoises_nothing(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 6, make_batch(pool))
    msg = OrderMsg(instance_id=1, sender=1, ordering_id=6,
                   cert=entry.cert)
    crypto.clear_caches()
    raw = msg.encode()
    assert decode_message(raw) is msg
    # a plain copy of the bytes is parsed, to an equal message
    copy = bytes(bytearray(raw))
    assert type(copy) is bytes and decode_message(copy) == msg
    assert decode_message(copy) is not msg
    for seq in range(10):
        ping = Ping(instance_id=0, sender=2, seq=seq, sent_at_us=seq)
        assert decode_message(ping.encode()) is ping
        assert decode_message(bytes(ping.encode())) == ping
    assert not crypto._memo


def test_encode_once_per_message_object(world, monkeypatch):
    pool, booth = world
    entry = certify_entry(pool, booth, 7, make_batch(pool))
    msg = OrderMsg(instance_id=1, sender=1, ordering_id=7,
                   cert=entry.cert)
    packs = []
    packed = OrderMsg._packed

    def counting(self):
        packs.append(self)
        return packed(self)

    monkeypatch.setattr(OrderMsg, "_packed", counting)
    frames = [msg.encode() for _ in range(3)]
    assert packs == [msg]           # packed once, framed per call
    wire = bytes(frames[0])
    assert all(frame == wire and decode_message(frame) is msg
               for frame in frames)
    # a rewritten copy, as a byzantine sender makes, is encoded afresh
    forged = replace(msg, cert=AggregateSignature(
        bytes([msg.cert.sig_bytes[0] ^ 0b1000]) + msg.cert.sig_bytes[1:]))
    assert forged.encode() != wire
    assert len(packs) == 2
    assert messages._parse(forged.encode()) == forged
    parsed = messages._parse(wire)
    assert msg == parsed and repr(msg) == repr(parsed)


# -- decoding by reference ---------------------------------------------------

def _pre_order(pool, booth, ordering_id=5):
    batch = make_batch(pool, size=2)
    payload = order_cert_digest(ordering_id, batch.batch_hash, booth.booth_hash)
    return PreOrder(instance_id=1, sender=1, ordering_id=ordering_id,
                    batch=batch, batch_hash=batch.batch_hash, booth=booth,
                    booth_hash=booth.booth_hash,
                    proposer_partial=_proposer_partial(pool, booth, payload))


def _gossip(pool, commit, tx, hops):
    traverse = tuple(
        TraverseHop(lifetime=life, node_id=node,
                    sig=pool.keys[node].sign(
                        traverse_digest(commit.commit_hash(), life)))
        for node, life in hops)
    return GossipMsg(instance_id=1, sender=hops[-1][0],
                     commit=commit.certified(), tx=tx, traverse=traverse)


def test_messages_carrying_one_booth_share_its_profile(world):
    pool, booth = world
    crypto.clear_caches()
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    _, tx = commit_window(pool, booth, 0, 100_000, [entry])
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    seen = PreCommitSeen(instance_id=1, sender=1, window_start_us=0,
                         window_len_us=100_000, tx_hash=tx.tx_hash, first_id=0,
                         last_id=0, booth=booth, booth_hash=booth.booth_hash,
                         proposer_partial=_proposer_partial(pool, booth, payload))
    a = decode_message(_pre_order(pool, booth).encode())
    b = decode_message(seen.encode())
    assert a.booth == booth and a.booth is b.booth
    assert a.booth.packed == booth.packed
    assert a.booth.booth_hash == booth.booth_hash


def test_forwarded_gossip_holds_its_commit_as_its_bytes_decode_it(world):
    """A gossip carries its commit's certified fields, without the
    commit's instance and sender. A forwarder's gossip holds them as it got
    them, so it equals what its bytes parse to."""
    pool, booth = world
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    commit, tx = _commit_msg(pool, booth, [entry])
    forwarded = _gossip(pool, commit, tx, [(1, 2), (3, 1)])
    assert forwarded.sender == 3 and forwarded.commit == commit.certified()
    assert messages._parse(forwarded.encode()) == forwarded


def test_forwarded_gossip_reuses_the_parsed_transaction(world, monkeypatch):
    pool, booth = world
    crypto.clear_caches()
    entries = [certify_entry(pool, booth, i, make_batch(pool))
               for i in range(2)]
    commit, tx = _commit_msg(pool, booth, entries)
    first = decode_message(_gossip(pool, commit, tx, [(1, 2)]).encode())
    parses = []
    real = Transaction.read_from.__func__

    def counting(cls, r):
        parses.append(1)
        return real(cls, r)

    monkeypatch.setattr(Transaction, "read_from", classmethod(counting))
    forwarded = decode_message(
        _gossip(pool, commit, tx, [(1, 2), (3, 1)]).encode())
    assert forwarded.tx is first.tx and forwarded.tx == tx
    assert len(forwarded.traverse) == 2
    assert parses == []


def test_sub_value_interns_are_bounded_and_cleared(world, monkeypatch):
    pool, _ = world
    monkeypatch.setattr(crypto, "MEMO_SIZE", 2)
    crypto.clear_caches()
    for created in range(5):
        booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2,
                           created_at_us=created)
        decoded = decode_message(_pre_order(pool, booth).encode())
        assert decoded.booth == booth
        assert len(crypto._memo) <= 2
        entry = certify_entry(pool, booth, 0, make_batch(pool))
        commit, tx = _commit_msg(pool, booth, [entry])
        assert decode_message(_gossip(pool, commit, tx, [(1, 2)]).encode()).tx == tx
        assert len(crypto._memo) <= 2
    assert not any(key[0] == "msg" for key in crypto._memo)
    crypto.clear_caches()
    assert not crypto._memo


def test_malformed_booth_raises_on_every_call(world):
    pool, booth = world
    crypto.clear_caches()
    raw = _pre_order(pool, booth).encode()
    at = raw.index(booth.packed)
    role = Role.PIVOT.value.encode()
    bad_booth = booth.packed.replace(role, role[:-1] + b"X")
    assert len(bad_booth) == len(booth.packed) and bad_booth != booth.packed
    bad = raw[:at] + bad_booth + raw[at + len(bad_booth):]
    for _ in range(3):
        with pytest.raises(ValueError):
            decode_message(bad)
    assert ("msg", bad) not in crypto._memo
    assert decode_message(raw).booth == booth


def _with_arity(raw: bytes, good: list, bad: list) -> bytes:
    """`raw` with the one packing of `good` in it swapped for `bad`."""
    assert raw.count(pack(good)) == 1
    return raw.replace(pack(good), pack(bad))


def test_decode_rejects_a_fixed_list_of_the_wrong_arity(world):
    pool, booth = world
    entries = [certify_entry(pool, booth, i, make_batch(pool))
               for i in range(2)]
    commit, tx = _commit_msg(pool, booth, entries)
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    unseen = PreCommitUnseen(
        instance_id=1, sender=1, window_start_us=0, window_len_us=100_000,
        tx_hash=tx.tx_hash, tx=tx, booth=booth, booth_hash=booth.booth_hash,
        proposer_partial=_proposer_partial(pool, booth, payload))
    c = entries[1].cert
    entry_cert = [c.sig_bytes]
    m = booth.members[0]
    member = [m.node_id, m.role.value, m.verify_key, m.net_addr]
    cert = commit.cert
    body = [commit.window_start_us, commit.booth_hash, [cert.sig_bytes],
            commit.tx_hash]
    gossip = _gossip(pool, commit, tx, [(1, 2)]).encode()
    pre_order_msg = _pre_order(pool, booth)
    pre_order = pre_order_msg.encode()
    p = pre_order_msg.proposer_partial
    partial = [p.signer, p.payload_digest, p.sig_bytes]
    bad = [
        _with_arity(unseen.encode(), entry_cert, entry_cert + [0]),
        _with_arity(pre_order, partial, partial[:2]),
        _with_arity(pre_order, member, member[:3]),
        _with_arity(gossip, body, body[:3]),
    ]
    for raw in bad:
        with pytest.raises(ValueError):
            decode_message(raw)


def test_back_to_back_runs_report_identically(monkeypatch):
    spec = harness.RunSpec(booth_size=4, pool=8, lambda0=2, rate_per_s=100.0,
                           duration_ms=300.0, grace_ms=400.0, seed=5,
                           sim=SimConfig(seed=0, drop_rate=0.05, dup_rate=0.02))
    used = []
    clear = crypto.clear_caches

    def note_then_clear():
        used.append(any(isinstance(value, messages._Message)
                        for value in crypto._memo.values()))
        clear()

    monkeypatch.setattr(crypto, "clear_caches", note_then_clear)
    first = harness.run(spec)
    assert used and not any(used)    # no message is in the memo at a clear
    second = harness.run(spec)
    assert json.dumps(first.report, sort_keys=True) == \
        json.dumps(second.report, sort_keys=True)


def test_a_run_parses_no_message(monkeypatch):
    """Every payload in a run is encoded in this process, byzantine
    forgeries included, so no delivery parses: a message path that
    bypassed `encode` would show here."""
    parsed, decoded = [], set()
    parse, decode = messages._parse, node.decode_message

    def counting_parse(raw):
        parsed.append(raw)
        return parse(raw)

    def noting_decode(raw):
        msg = decode(raw)
        decoded.add(type(msg))
        return msg

    monkeypatch.setattr(messages, "_parse", counting_parse)
    monkeypatch.setattr(node, "decode_message", noting_decode)
    harness.run(harness.RunSpec(
        pool=6, lambda0=2, duration_ms=400.0, grace_ms=400.0,
        rate_per_s=100.0, seed=3,
        byzantine=((2, ("forge_quorum", "mutate_gossip_lifetime")),)))
    assert decoded == set(messages._BY_TAG.values())
    assert parsed == []


# -- decoder fuzzing ---------------------------------------------------------

@lru_cache(maxsize=1)
def _valid_wires() -> tuple[bytes, ...]:
    return tuple(m.encode() for m in _valid_messages())


@lru_cache(maxsize=1)
def _valid_messages() -> tuple:
    """One message of each type."""
    pool = make_pool([1, 2, 3, 4], seed=31)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    entries = [certify_entry(pool, booth, i, make_batch(pool, size=2))
               for i in range(2)]
    commit, tx = _commit_msg(pool, booth, entries)
    payload = commit_cert_digest(0, tx.tx_hash, booth.booth_hash)
    partial = _proposer_partial(pool, booth, payload)
    msgs = [
        _pre_order(pool, booth),
        OrderReply(instance_id=1, sender=3, ordering_id=5, partial=partial),
        OrderMsg(instance_id=1, sender=1, ordering_id=0,
                 cert=entries[0].cert),
        PreCommitSeen(instance_id=1, sender=1, window_start_us=0,
                      window_len_us=100_000, tx_hash=tx.tx_hash, first_id=0,
                      last_id=1, booth=booth, booth_hash=booth.booth_hash,
                      proposer_partial=partial),
        PreCommitUnseen(instance_id=1, sender=1, window_start_us=0,
                        window_len_us=100_000, tx_hash=tx.tx_hash, tx=tx,
                        booth=booth, booth_hash=booth.booth_hash,
                        proposer_partial=partial),
        CommitReply(instance_id=1, sender=4, window_start_us=0, partial=partial),
        commit,
        _gossip(pool, commit, tx, [(1, 2), (3, 1)]),
        GossipAck(instance_id=1, sender=5, commit_hash=commit.commit_hash()),
        Ping(instance_id=0, sender=2, seq=9, sent_at_us=123),
        Pong(instance_id=0, sender=3, seq=9, sent_at_us=123),
    ]
    return tuple(msgs)


# Where `NodeRuntime.handle` hands each message type (Ping is answered by
# the runtime itself with a Pong).
HANDLERS = {
    Pong: (MembershipUnit, "on_pong"),
    GossipMsg: (GossipAgent, "handle_gossip"),
    GossipAck: (GossipAgent, "handle_ack"),
    OrderReply: (OrderingCoordinator, "handle_reply"),
    CommitReply: (ConsensusCoordinator, "handle_reply"),
    PreOrder: (ValidatorOrdering, "handle_pre_order"),
    OrderMsg: (ValidatorOrdering, "handle_order"),
    PreCommitSeen: (ValidatorConsensus, "handle_seen"),
    PreCommitUnseen: (ValidatorConsensus, "handle_unseen"),
    CommitMsg: (ValidatorConsensus, "handle_commit"),
}


def test_every_message_type_reaches_its_handler(monkeypatch):
    """`NodeRuntime.handle` routes a message of each type in the wire's tag
    table to its handler, looked up on its class when the message arrives;
    none of them is counted as a drop. A type the routing table missed
    would be counted MALFORMED and reach nothing."""
    pool = make_pool([1, 2, 3, 4], seed=31)
    net = Network(SimConfig())
    env = NodeEnv(net, 1)
    runtime = node.NodeRuntime(1, env, pool.registry, pool.keys[1],
                               node.ProtocolConfig(), 100_000,
                               gossip_peers=[2, 3, 4],
                               gossip_lifetime=2)
    for peer in (2, 3, 4):
        net.register(peer, lambda *args: None)
    runtime.add_proposer(1, MembershipUnit(
        1, proposer_id=1, pivot_id=2,
        pool=[pool.identities[i] for i in (1, 2, 3, 4)], booth_size=4,
        config=MmuConfig(), env=env))
    reached = []
    for cls, name in HANDLERS.values():
        monkeypatch.setattr(cls, name, lambda self, src, msg, name=name:
                            reached.append((type(msg), name)))
    msgs = [replace(msg, instance_id=1) for msg in _valid_messages()]
    assert {type(msg) for msg in msgs} == set(messages._BY_TAG.values())
    for msg in msgs:
        runtime.handle(2, msg.encode(), Category.CONTROL)
    assert reached == [(type(msg), HANDLERS[type(msg)][1]) for msg in msgs
                       if type(msg) is not Ping]
    assert net.counters == {("ping", None): 1}        # the Ping's Pong
    assert not net.drops
    runtime.handle(2, b"\x01\x00", Category.CONTROL)  # no such tag
    assert net.drops == {(1, RejectReason.MALFORMED): 1}


def _decodes_canonically_or_rejects(raw: bytes) -> None:
    """decode_message returns a message or raises ValueError; whatever it
    accepts packs back to the same bytes, also where a carried booth
    profile is packed afresh instead of spliced from its decoded slice."""
    try:
        msg = decode_message(raw)
    except ValueError:
        return
    assert replace(msg).encode() == raw
    booths = [getattr(msg, "booth", None)]
    tx = getattr(msg, "tx", None)
    if tx is not None:
        booths += [link.booth for link in tx.membership_links]
    for booth in filter(None, booths):
        assert fresh_profile(booth).packed == booth.packed


_FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                 database=None)


@_FUZZ
@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda tag, body: bytes((WIRE_VERSION, tag)) + body,
              st.integers(0, 12), st.binary(max_size=200))))
def test_decode_arbitrary_bytes_returns_or_raises_value_error(raw):
    _decodes_canonically_or_rejects(raw)


@st.composite
def _mutated_wire(draw) -> bytes:
    wires = _valid_wires()
    raw = bytearray(draw(st.sampled_from(wires)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "insert")))
        pos = draw(st.integers(0, max(len(raw) - 1, 0)))
        if kind == "flip" and raw:
            raw[pos] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del raw[pos:]
        else:
            raw[pos:pos] = draw(st.binary(min_size=1, max_size=9))
    return bytes(raw)


@_FUZZ
@given(_mutated_wire())
def test_decode_mutated_messages_returns_or_raises_value_error(raw):
    _decodes_canonically_or_rejects(raw)


def test_valid_wires_decode_to_themselves_and_no_prefix_decodes():
    for raw in _valid_wires():
        assert replace(messages._parse(raw)).encode() == raw
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                decode_message(raw[:cut])


# -- the generated encoder ----------------------------------------------------

def _reference(value) -> list:
    """The fields of a `Wire` value as `pack` takes them, worked out from
    the annotations on every call: the packing the generated encoders
    replaced, kept as their reference."""
    hints = get_type_hints(type(value))
    return [_reference_field(getattr(value, f.name), hints[f.name])
            for f in dataclasses.fields(value)]


def _reference_field(value, tp):
    if tp in (int, bytes, str):
        return value
    if tp is Role:
        return value.value
    if get_origin(tp) is tuple:
        return [_reference_field(item, get_args(tp)[0]) for item in value]
    if tp is DataBatch:
        return [[[e.origin_seq, e.payload] for e in value.entries]]
    return _reference(value)


def _encoded(value) -> bytes:
    if isinstance(value, messages._Message):
        return value.encode()
    return value.to_field().raw


def _referenced(value) -> bytes:
    if isinstance(value, messages._Message):
        return bytes((WIRE_VERSION, value.TAG)) + pack(*_reference(value))
    return pack(_reference(value))


def _outcome(encode):
    """What `encode()` returned, or the type and message of what it raised."""
    try:
        return encode()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _inlined(tp) -> bool:
    """Whether an encoder packs a field of type `tp` field by field."""
    return isinstance(tp, type) and issubclass(tp, Wire) \
        and tp.to_field is Wire.to_field


def _positions(cls, path=()):
    """(path, type) of every int and bytes field of `cls`, and of the
    `Wire` values and the first item of the tuples of them it inlines."""
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if tp in (int, bytes):
            yield path + (f.name,), tp
        elif get_origin(tp) is tuple and _inlined(get_args(tp)[0]):
            yield from _positions(get_args(tp)[0], path + (f.name, 0))
        elif _inlined(tp):
            yield from _positions(tp, path + (f.name,))


def _with(value, path, bad):
    """A fresh copy of `value` that holds `bad` at `path`, set past any
    check its constructor makes."""
    name, *rest = path
    if isinstance(value, tuple):
        return (*value[:name], _with(value[name], rest, bad),
                *value[name + 1:])
    out = replace(value)
    object.__setattr__(out, name,
                       _with(getattr(value, name), rest, bad) if rest else bad)
    return out


def _rebuilt(value):
    """An equal value in which every `Wire` is built afresh, so nothing in
    it has been packed yet."""
    if isinstance(value, tuple):
        return tuple(map(_rebuilt, value))
    if isinstance(value, Wire):
        return replace(value, **{f.name: _rebuilt(getattr(value, f.name))
                                 for f in dataclasses.fields(value)})
    return value


def _wire_examples() -> list:
    """A valid value of every wire type: each message, and what they
    carry."""
    msgs = {type(m): m for m in _valid_messages()}
    tx, booth = msgs[PreCommitUnseen].tx, msgs[PreCommitUnseen].booth
    return [*msgs.values(), booth, booth.members[0], tx, tx.entries[0],
            tx.membership_links[0], msgs[OrderReply].partial,
            msgs[OrderMsg].cert, msgs[GossipMsg].commit,
            msgs[GossipMsg].traverse[0]]


_U64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                 st.integers(0, 2**64 - 1))
_BLOBS = st.one_of(st.binary(max_size=80),
                   st.sampled_from([b"", bytes(70_000)]))


@st.composite
def _booths(draw) -> BoothProfile:
    members = draw(st.lists(_values(Identity), min_size=1, max_size=4,
                            unique_by=lambda m: m.node_id))
    members.sort(key=lambda m: m.node_id)
    ids = [m.node_id for m in members]
    return BoothProfile(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)),
                        draw(_U64), tuple(members))


def _values(tp):
    """A strategy for any valid value of a wire annotation: boundary ints,
    empty and long bytes, and empty tuples among them."""
    if tp is int:
        return _U64
    if tp is bytes:
        return _BLOBS
    if tp is str:
        return st.text(max_size=12)
    if tp is Role:
        return st.sampled_from(Role)
    if get_origin(tp) is tuple:
        return st.lists(_values(get_args(tp)[0]), max_size=3).map(tuple)
    if tp is DataBatch:
        return st.builds(
            lambda first, payloads: DataBatch(
                DataEntry(first + i, p) for i, p in enumerate(payloads)),
            st.integers(0, 2**64 - 4),
            st.lists(st.binary(max_size=20), max_size=3))
    if tp is BoothProfile:
        return _booths()
    if tp is type(None):
        return st.none()
    if get_origin(tp) is Union:
        return st.one_of([_values(arg) for arg in get_args(tp)])
    return _arguments(tp).map(lambda kwargs: tp(**kwargs))


def _arguments(tp):
    """A strategy for the constructor arguments, by field name, of a valid
    value of the dataclass `tp`."""
    if tp is BoothProfile:
        return _booths().map(lambda booth: {
            f.name: getattr(booth, f.name) for f in dataclasses.fields(tp)})
    hints = get_type_hints(tp)
    fields_ = {f.name: _values(hints[f.name]) for f in dataclasses.fields(tp)}
    if tp is Identity:
        fields_["verify_key"] = st.binary(min_size=32, max_size=32)
    return st.fixed_dictionaries(fields_)


_WIRE_TYPES = [*messages._BY_TAG.values(), BoothProfile, Identity,
               PartialSignature, AggregateSignature, Transaction, TxEntry,
               MembershipLink, CertifiedCommit, TraverseHop]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_WIRE_TYPES).flatmap(_values))
def test_generated_encoders_pack_as_the_reference_does(value):
    assert _encoded(value) == _referenced(value)


# the records whose constructor `codec.record` generates: every type a run
# builds per message or per entry
_RECORDS = [messages._Message, *_WIRE_TYPES, LogEntry, CommitRecord, StoredTx]

# what `dataclasses` writes into a class it makes
_DATACLASS_MADE = {"__init__", "__setattr__", "__delattr__", "__eq__",
                   "__hash__", "__repr__", "__match_args__", "__dict__",
                   "__weakref__", "__dataclass_fields__",
                   "__dataclass_params__"}


def _dataclass_made(cls):
    """The reference: a copy of `cls` made a frozen dataclass afresh, so
    its constructor, like the rest, is the one `dataclasses` generates.
    The copy keeps no slots: its own fields are class annotations again,
    with their defaults, as the class body declared them."""
    slots = vars(cls).get("__slots__", ())
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in {*_DATACLASS_MADE, "__slots__", *slots}}
    namespace.update({f.name: f.default for f in dataclasses.fields(cls)
                      if f.name in slots and f.default is not MISSING})
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, cls.__bases__, namespace))


def _field_values(value) -> list:
    """(name, value) of each field, in declaration order."""
    return [(f.name, getattr(value, f.name))
            for f in dataclasses.fields(value)]


def test_each_record_has_a_generated_constructor():
    assert [cls.__name__ for cls in _RECORDS
            if cls.__dataclass_params__.init] == []
    # built once per run: dataclass's own constructor
    assert all(cls.__dataclass_params__.init for cls in (
        SimConfig, MmuConfig, node.ProtocolConfig,
        harness.RunSpec))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_RECORDS).flatmap(
    lambda cls: st.tuples(st.just(cls), _arguments(cls))))
def test_generated_constructors_build_what_dataclass_builds(case):
    cls, kwargs = case
    reference = _dataclass_made(cls)(**kwargs)
    args = [kwargs[f.name] for f in dataclasses.fields(cls)]
    for made in (cls(**kwargs), cls(*args)):
        assert _field_values(made) == _field_values(reference)
        assert hash(made) == hash(reference)
        assert repr(made) == repr(reference)
        assert made == cls(*args) == replace(made) == replace(made, **kwargs)
        for name in kwargs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, name, None)


def test_only_the_records_that_cache_keep_an_instance_dict():
    assert [cls.__name__ for cls in _RECORDS if cls.__dictoffset__] == [
        "BoothProfile", "Transaction"]
    # nor does a proposer's or a validator's per-round state
    assert not any(cls.__dictoffset__ for cls in (
        OrderingRound, ConsensusRound, PendingOrder, PendingCommit))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_RECORDS).flatmap(
    lambda cls: st.tuples(st.just(cls), _arguments(cls))))
def test_a_record_refuses_a_field_and_a_new_attribute(case):
    cls, kwargs = case
    made = cls(**kwargs)
    for name in (*kwargs, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, None)
    assert not hasattr(made, "not_a_field")
    assert made == cls(**kwargs)


def test_generated_constructors_apply_defaults_and_post_init(world):
    _, booth = world
    batch, cert = DataBatch(), AggregateSignature(b"")
    for cls, args, name in (
            (LogEntry, (1, batch, b"h", cert), "appended_at_us"),
            (CommitRecord, (1, b"h", cert, b"t"), "committed_at_us")):
        made = cls(*args)
        assert getattr(made, name) == 0
        assert _field_values(made) == _field_values(
            _dataclass_made(cls)(*args))
    members = booth.members
    for cls in (Identity, _dataclass_made(Identity)):
        with pytest.raises(ValueError, match="32 raw"):
            cls(1, Role.VEHICLE, bytes(31), "sim://node/1")
    for cls in (BoothProfile, _dataclass_made(BoothProfile)):
        with pytest.raises(ValueError, match="sorted"):
            cls(booth.proposer_id, booth.pivot_id, 0, members[::-1])
        with pytest.raises(ValueError, match="proposer and pivot"):
            cls(99, booth.pivot_id, 0, members)
