"""Wire roundtrips for every message type, plus malformed-input rejection."""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (certify_entry, commit_window, default_quorum,
                      fresh_profile, make_batch, make_booth, make_pool)
from vguard import codec, crypto, harness, messages, node
from vguard.codec import pack
from vguard.netsim import SimConfig
from vguard.crypto import AggregateSignature, Role, make_partial
from vguard.ledger import Transaction, commit_cert_digest, order_cert_digest
from vguard.messages import (WIRE_VERSION, CommitMsg, CommitReply, GossipAck,
                             GossipMsg, OrderMsg, OrderReply, Ping, Pong,
                             PreCommitSeen, PreCommitUnseen, PreOrder,
                             TraverseHop, decode_message, traverse_digest)


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
    msg = GossipMsg(instance_id=1, sender=1, commit=commit, tx=tx,
                    traverse=(hop,))
    decoded = roundtrip(msg)
    assert decoded.traverse[0].lifetime == 2
    roundtrip(GossipAck(instance_id=1, sender=5,
                        commit_hash=commit.commit_hash(), propagator=5))


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


@pytest.mark.parametrize("bad", [True, False, -1, 2**64, 1.5, None])
def test_all_u64_messages_reject_what_pack_rejects(bad):
    with pytest.raises((TypeError, ValueError)) as expected:
        pack(1, 2, bad, 4)
    with pytest.raises(expected.type) as got:
        Ping(1, 2, bad, 4).encode()
    assert str(got.value) == str(expected.value)


def test_all_u64_layouts_pack_in_one_struct_step(monkeypatch):
    def no_pack(*fields):
        raise AssertionError("packed field by field")

    monkeypatch.setattr(codec, "pack", no_pack)
    monkeypatch.setattr(messages, "pack", no_pack)
    assert Pong(3, 4, 5, 6).encode() == bytes((WIRE_VERSION, Pong.TAG)) + b"".join(
        b"I" + v.to_bytes(8, "big") for v in (3, 4, 5, 6))
    assert codec.u64_packer(Ping) is not None
    assert codec.u64_packer(TraverseHop) is None          # carries bytes
    assert codec.u64_packer(OrderReply) is None


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


def test_decode_interns_by_bytes_and_stays_bounded(world, monkeypatch):
    pool, booth = world
    entry = certify_entry(pool, booth, 6, make_batch(pool))
    msg = OrderMsg(instance_id=1, sender=1, ordering_id=6,
                   cert=entry.cert)
    raw = msg.encode()
    # a second copy of the bytes, as every booth member receives one
    assert decode_message(bytes(bytearray(raw))) is decode_message(raw)
    monkeypatch.setattr(crypto, "MEMO_SIZE", 3)
    crypto.clear_caches()
    for seq in range(10):
        ping = Ping(instance_id=0, sender=2, seq=seq, sent_at_us=seq)
        assert decode_message(ping.encode()) == ping
        assert len(crypto._memo) <= 3


def test_encode_once_per_message_object(world):
    pool, booth = world
    entry = certify_entry(pool, booth, 7, make_batch(pool))
    msg = OrderMsg(instance_id=1, sender=1, ordering_id=7,
                   cert=entry.cert)
    wire = msg.encode()
    assert msg.encode() is wire
    # a rewritten copy, as a byzantine sender makes, is encoded afresh
    forged = replace(msg, cert=AggregateSignature(
        bytes([msg.cert.sig_bytes[0] ^ 0b1000]) + msg.cert.sig_bytes[1:]))
    assert forged.encode() != wire
    assert messages._parse(forged.encode()) == forged
    parsed = messages._parse(wire)
    assert msg == parsed and repr(msg) == repr(parsed)


# -- decoding through the run memo ---------------------------------------------------

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
    return GossipMsg(instance_id=1, sender=hops[-1][0], commit=commit, tx=tx,
                     traverse=traverse)


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
    """The wire carries a gossip's commit without the commit's own instance
    and sender; a receiver reads them from the gossip. A forwarder's gossip
    holds the commit that way too, so it equals what its bytes parse to."""
    pool, booth = world
    entry = certify_entry(pool, booth, 0, make_batch(pool))
    commit, tx = _commit_msg(pool, booth, [entry])
    forwarded = _gossip(pool, commit, tx, [(1, 2), (3, 1)])
    assert commit.sender == 1 and forwarded.commit.sender == 3
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
    assert any(key[0] == "msg" for key in crypto._memo)
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
        used.append(any(key[0] == "msg" for key in crypto._memo))
        clear()

    monkeypatch.setattr(crypto, "clear_caches", note_then_clear)
    first = harness.run(spec)
    assert used[-1]       # messages were memoised, up to the end-of-run clear
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
        GossipAck(instance_id=1, sender=5, commit_hash=commit.commit_hash(),
                  propagator=5),
        Ping(instance_id=0, sender=2, seq=9, sent_at_us=123),
        Pong(instance_id=0, sender=3, seq=9, sent_at_us=123),
    ]
    return tuple(m.encode() for m in msgs)


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
