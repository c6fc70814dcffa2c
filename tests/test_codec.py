"""Canonical codec: per-type packing, spliced packed fields, the Reader and
its skip, the [u64, bytes] pair fast path, and the hashes computed from
captured bytes."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import (certify_entry, commit_window, fresh_profile, make_batch,
                      make_booth, make_pool)
from vguard.booths import BoothProfile
from vguard.codec import (Packed, Reader, digest, pack, pack_pair_lists,
                          pack_pairs)
from vguard.ledger import DataBatch, DataEntry, Transaction
from vguard.ordering import batch_wire_bytes


@pytest.fixture(scope="module")
def world():
    pool = make_pool([1, 2, 3, 4], seed=23)
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    return pool, booth


def _booth_fields(booth: BoothProfile) -> list:
    return [booth.proposer_id, booth.pivot_id, booth.created_at_us,
            [[m.node_id, m.role.value, m.verify_key, m.net_addr]
             for m in booth.members]]


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
    _, booth = world
    raw = pack(_booth_fields(booth))
    assert fresh_profile(booth).packed == raw
    r = Reader(b"junk" + raw + b"more", pos=4)
    decoded = BoothProfile.read_from(r)
    assert r.tell() == 4 + len(raw)
    assert decoded == booth
    assert decoded.packed == raw
    assert pack(decoded.to_field()) == raw


def test_booth_hash_from_bytes_equals_fieldwise_digest(world):
    _, booth = world
    expected = digest("booth", *_booth_fields(booth))
    assert fresh_profile(booth).booth_hash == expected
    decoded = BoothProfile.read_from(Reader(pack(_booth_fields(booth))))
    assert decoded.booth_hash == expected


def test_decoded_batch_hashes_the_slice_it_was_read_from(world):
    pool, _ = world
    batch = make_batch(pool, size=5, payload_len=13)
    fields = [[e.origin_seq, e.payload] for e in batch.entries]
    expected = digest("batch", fields)
    assert DataBatch(batch.entries).batch_hash == expected
    raw = pack(batch.to_field())
    r = Reader(raw)
    decoded = DataBatch.read_from(r)
    r.expect_done()
    assert decoded == batch
    # the batch keeps one copy of the bytes, the entry list as read (after
    # the batch's own one-field list header), and hashes that slice
    entry_list = raw[5:]
    assert decoded.packed == entry_list
    assert decoded.batch_hash == expected
    assert not hasattr(decoded, "__dict__")
    assert {name: getattr(decoded, name) for name in DataBatch.__slots__} == {
        "packed": entry_list, "count": 5, "_hash": expected}


@pytest.mark.parametrize("size", [*range(10), *range(62, 67)])
def test_pack_pairs_equals_nested_pack(size):
    for count in (0, 1, 3, 64):
        pairs = [(7 + i, bytes([i]) * size) for i in range(count)]
        raw = pack_pairs(pairs)
        assert raw == pack([[n, payload] for n, payload in pairs])
        r = Reader(raw)
        assert r.skip_pairs() == count
        assert r.done()
    with pytest.raises(ValueError):
        pack_pairs([(1 << 64, b"x")])


@pytest.mark.parametrize("size", [*range(10), *range(62, 67)])
def test_pack_pair_lists_equals_pack_pairs_per_list(size):
    rng = np.random.default_rng(size)
    for per_list in (1, 3, 64):
        for lists in (0, 1, 4):
            for first in (0, 7, 2**40 + 7, 2**64 - lists * per_list):
                rows = rng.integers(0, 256, (lists * per_list, size), np.uint8)
                pairs = [(first + i, row.tobytes())
                         for i, row in enumerate(rows)]
                assert pack_pair_lists(first, rows, per_list) == [
                    pack_pairs(pairs[k:k + per_list])
                    for k in range(0, len(pairs), per_list)]


@pytest.mark.parametrize("first", [2**64 - 2, 2**64, -1])
def test_pack_pair_lists_refuses_a_seq_outside_u64(first):
    """As `pack_pairs` does, for a list whose last seq passes 2**64 - 1, or
    whose first is negative."""
    rows = np.zeros((3, 4), np.uint8)
    with pytest.raises(ValueError):
        pack_pairs([(first + i, row.tobytes()) for i, row in enumerate(rows)])
    with pytest.raises(ValueError):
        pack_pair_lists(first, rows, 3)


def _batch_bytes(entries: list) -> bytes:
    """A PreOrder's batch field: a list of one field, the entry list."""
    return pack([entries])


def test_batch_read_from_rejects_bad_entry_tag_arity_or_length():
    good = [[1, b"ab"], [2, b"cd"]]
    DataBatch.read_from(Reader(_batch_bytes(good)))
    bad_shapes = [
        [[1, b"ab"], [2, b"cd", 3]],          # arity 3
        [[1, b"ab"], [2]],                    # arity 1
        [[1, b"ab"], [b"2", b"cd"]],          # bytes where the u64 goes
        [[1, b"ab"], [2, 3]],                 # u64 where the bytes go
        [[1, b"ab"], [2, "cd"]],              # text where the bytes go
        [[1, b"ab"], 2],                      # not a list
    ]
    for entries in bad_shapes:
        with pytest.raises(ValueError):
            DataBatch.read_from(Reader(_batch_bytes(entries)))
    raw = _batch_bytes(good)
    # the second entry's own tags and arity, one byte at a time: its list
    # tag at 31, arity at 32..35, u64 tag at 36, bytes tag at 45
    for pos, good_byte in ((31, b"L"), (36, b"I"), (45, b"B")):
        assert raw[pos:pos + 1] == good_byte
        for tag in (b"L", b"I", b"B", b"S", b"X"):
            if tag != good_byte:
                with pytest.raises(ValueError):
                    DataBatch.read_from(Reader(raw[:pos] + tag + raw[pos + 1:]))
    for arity in (0, 1, 3):
        with pytest.raises(ValueError):
            DataBatch.read_from(Reader(
                raw[:32] + arity.to_bytes(4, "big") + raw[36:]))
    for cut in range(len(raw)):
        with pytest.raises(ValueError):
            DataBatch.read_from(Reader(raw[:cut]))
    # a payload length that runs past the end of the buffer
    overlong = raw[:-7] + (3).to_bytes(4, "big") + b"cd"
    with pytest.raises(ValueError):
        DataBatch.read_from(Reader(overlong))
    with pytest.raises(ValueError):
        DataBatch.read_from(Reader(pack([good, good])))    # two fields


def test_batch_entries_len_eq_and_hash_round_trip():
    entries = (DataEntry(5, b"x" * 9), DataEntry(6, b""), DataEntry(9, b"zz"))
    batch = DataBatch(entries)
    assert batch.entries == entries
    assert len(batch) == 3
    decoded = DataBatch.read_from(Reader(pack(batch.to_field())))
    assert decoded.entries == entries
    assert len(decoded) == 3
    assert decoded == batch and hash(decoded) == hash(batch)
    assert DataBatch(entries=entries) == batch
    assert DataBatch.consecutive(
        5, np.frombuffer(b"x" * 9 + b"y" * 9, np.uint8).reshape(2, 9), 1) == [
            DataBatch(entries[:1]), DataBatch([DataEntry(6, b"y" * 9)])]
    assert DataBatch(entries[:2]) != batch
    assert DataBatch(entries[::-1]) != batch
    assert len({batch, decoded, DataBatch(entries[:2])}) == 2
    assert DataBatch().entries == () and len(DataBatch()) == 0


@pytest.mark.parametrize("size", [*range(10), *range(62, 67)])
def test_batch_wire_bytes_equals_the_per_entry_sum(size):
    for count in (1, 2, 8, 64):
        batch = DataBatch(DataEntry(1 + i, b"\xa5" * size)
                          for i in range(count))
        assert batch_wire_bytes(batch) == \
            sum(len(e.payload) + 16 for e in batch.entries) + 8


def test_transaction_roundtrip_is_byte_identical(world):
    pool, booth = world
    entries = [certify_entry(pool, booth, oid, make_batch(pool))
               for oid in (1, 2, 3)]
    _, tx = commit_window(pool, booth, 0, 100_000, entries)
    raw = pack(tx.to_field())
    decoded = Transaction.read_from(Reader(raw))
    assert decoded == tx
    assert pack(decoded.to_field()) == raw
    assert decoded.tx_hash == tx.tx_hash
    link_booth = decoded.membership_links[0].booth
    assert link_booth.packed == fresh_profile(booth).packed


def _sample() -> bytes:
    return pack(3, b"abc", "xy", [1, [b"", 2], []])


def _read_sample(r: Reader) -> None:
    r.u64(), r.bytes_(), r.str_(), r.seq_len()
    r.u64(), r.seq_len(), r.bytes_(), r.u64(), r.seq_len()
    r.expect_done()


def test_readers_reject_truncation_and_wrong_tags():
    raw = _sample()
    _read_sample(Reader(raw))
    for cut in range(len(raw)):
        with pytest.raises(ValueError):
            _read_sample(Reader(raw[:cut]))
    for read in (Reader.bytes_, Reader.str_, Reader.seq_len):
        with pytest.raises(ValueError):
            read(Reader(pack(1)))
    with pytest.raises(ValueError):
        Reader(pack(b"x" * 9)).u64()


def test_digest_is_sha256_of_the_packed_label_and_fields():
    assert digest("t", 1, b"x") == hashlib.sha256(pack("t", 1, b"x")).digest()
