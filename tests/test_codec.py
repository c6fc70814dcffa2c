"""Canonical codec: per-type packing, spliced packed fields, the Reader and
its skip, and the hashes computed from captured bytes."""

from __future__ import annotations

import hashlib

import pytest

from conftest import (certify_entry, commit_window, fresh_profile, make_batch,
                      make_booth, make_pool)
from vguard.booths import BoothProfile
from vguard.codec import Packed, Reader, digest, pack
from vguard.ledger import DataBatch, Transaction


@pytest.fixture(scope="module")
def world():
    pool = make_pool([1, 2, 3, 4], seed=23)
    booth, material = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    return pool, booth, material


def _booth_fields(booth: BoothProfile) -> list:
    return [booth.proposer_id, booth.pivot_id, booth.threshold,
            booth.created_at_us,
            [[m.node_id, m.role.value, m.verify_key, m.net_addr]
             for m in booth.members],
            [[node_id, key] for node_id, key in booth.directory]]


def test_pack_layout_per_type():
    assert pack(5) == b"I" + (5).to_bytes(8, "big")
    assert pack(b"ab") == b"B\x00\x00\x00\x02ab"
    assert pack("é") == b"S\x00\x00\x00\x02" + "é".encode()
    assert pack([1, b""]) == pack((1, b"")) == (
        b"L\x00\x00\x00\x02" + pack(1) + pack(b""))
    assert pack(1, "x") == pack(1) + pack("x")


def test_pack_rejects_what_is_not_a_canonical_field():
    for bad in (True, False, 1.5, None, {1: 2}, [1, [2.0]]):
        with pytest.raises(TypeError):
            pack(bad)
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError):
            pack(bad)
    assert pack((1 << 64) - 1) == b"I" + b"\xff" * 8


def test_pack_accepts_subclasses_of_field_types():
    class Tag(str):
        pass

    class Count(int):
        pass

    assert pack(Tag("x"), Count(3)) == pack("x", 3)


def test_spliced_packed_field_equals_nested_pack():
    inner = [7, b"payload", "text", [[1, b"k"], []]]
    spliced = pack(1, Packed(pack(inner)), b"tail")
    assert spliced == pack(1, inner, b"tail")
    assert pack([Packed(pack(inner)), 2]) == pack([inner, 2])
    # a run of fields spliced at once, as booth_hash splices its six fields
    assert pack("label", Packed(pack(1, b"x"))) == pack("label", 1, b"x")


def test_decoded_booth_keeps_the_bytes_it_was_read_from(world):
    _, booth, _ = world
    raw = pack(_booth_fields(booth))
    assert fresh_profile(booth).packed == raw
    r = Reader(b"junk" + raw + b"more", pos=4)
    decoded = BoothProfile.read_from(r)
    assert r.tell() == 4 + len(raw)
    assert decoded == booth
    assert decoded.packed == raw
    assert pack(decoded.to_field()) == raw


def test_booth_hash_from_bytes_equals_fieldwise_digest(world):
    _, booth, _ = world
    expected = digest("booth", *_booth_fields(booth))
    assert fresh_profile(booth).booth_hash == expected
    decoded = BoothProfile.read_from(Reader(pack(_booth_fields(booth))))
    assert decoded.booth_hash == expected


def test_decoded_batch_hashes_the_slice_it_was_read_from(world):
    pool, _, _ = world
    batch = make_batch(pool, size=5, payload_len=13)
    fields = [[e.origin_seq, e.payload] for e in batch.entries]
    expected = digest("batch", fields)
    assert DataBatch(batch.entries).batch_hash == expected
    raw = pack(batch.to_field())
    r = Reader(raw)
    decoded = DataBatch.read_from(r)
    r.expect_done()
    assert decoded == batch
    assert decoded.__dict__["batch_hash"] == expected
    # the hash is kept, not a second copy of the bytes
    assert set(decoded.__dict__) == {"entries", "batch_hash"}


def test_transaction_roundtrip_is_byte_identical(world):
    pool, booth, material = world
    entries = [certify_entry(pool, booth, material, oid, make_batch(pool))
               for oid in (1, 2, 3)]
    _, tx = commit_window(pool, booth, material, 0, 100_000, entries)
    raw = pack(tx.to_field())
    decoded = Transaction.read_from(Reader(raw))
    assert decoded == tx
    assert pack(decoded.to_field()) == raw
    assert decoded.tx_hash == tx.tx_hash
    link_booth = decoded.membership_links[0].booth
    assert link_booth.packed == fresh_profile(booth).packed


def _sample() -> bytes:
    return pack(3, b"abc", "xy", [1, [b"", 2], []])


def test_skip_steps_over_exactly_one_value():
    raw = _sample()
    r = Reader(raw)
    for _ in range(4):
        start = r.tell()
        r.skip()
        assert r.tell() > start
    assert r.done()
    r = Reader(raw)
    r.u64()
    r.bytes_()
    r.str_()
    start = r.tell()
    r.skip()
    assert r.slice_from(start) == pack([1, [b"", 2], []])


def _read_sample(r: Reader) -> None:
    r.u64(), r.bytes_(), r.str_(), r.seq_len()
    r.u64(), r.seq_len(), r.bytes_(), r.u64(), r.seq_len()
    r.expect_done()


def test_readers_and_skip_reject_truncation_and_wrong_tags():
    raw = _sample()
    _read_sample(Reader(raw))
    for cut in range(len(raw)):
        r = Reader(raw[:cut])
        with pytest.raises(ValueError):
            for _ in range(4):
                r.skip()
        with pytest.raises(ValueError):
            _read_sample(Reader(raw[:cut]))
    for read in (Reader.bytes_, Reader.str_, Reader.seq_len):
        with pytest.raises(ValueError):
            read(Reader(pack(1)))
    with pytest.raises(ValueError):
        Reader(pack(b"x" * 9)).u64()
    for bad in (b"X", b"\x00" * 9, b"Z\x00\x00\x00\x00"):
        with pytest.raises(ValueError):
            Reader(bad).skip()


def test_skip_handles_deep_nesting_without_recursion():
    depth = 100_000
    raw = b"L\x00\x00\x00\x01" * depth + pack(1)
    r = Reader(raw)
    r.skip()
    assert r.done()
    with pytest.raises(ValueError):
        Reader(raw[:-1]).skip()


def test_digest_is_sha256_of_the_packed_label_and_fields():
    assert digest("t", 1, b"x") == hashlib.sha256(pack("t", 1, b"x")).digest()
