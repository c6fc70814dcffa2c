"""Canonical byte encoding and digests.

Every signed or hashed structure is serialized with the same rules so that
two nodes always derive identical bytes for identical values:

* unsigned integers -> tag ``I`` + 8-byte big-endian
* byte strings      -> tag ``B`` + 4-byte big-endian length + raw bytes
* text              -> tag ``S`` + utf-8, length-prefixed like bytes
* sequences         -> tag ``L`` + 4-byte count + packed elements

Digests are sha256 over a packed tuple whose first field is a short
domain-separation label, so a batch hash can never collide with, say, a
commit-certificate digest of coincidentally equal fields.

The format is canonical: a value has exactly one packing, and `Reader`
accepts nothing else. So the bytes a value was decoded from are the bytes
`pack` would make of it, and a value that already holds its packing can
hand it over as a `Packed` field, which `pack` splices as-is instead of
packing the value again. `Reader.slice_from` returns the bytes read
since a position, so a decoder can keep the packing of what it just read.

Each structured type on the wire declares its layout once, as its
dataclass fields: a `Wire` subclass packs as the list of its fields in
declaration order, and `Wire` derives both its encoder and its decoder
from the field annotations. A list of [u64, bytes] pairs, the shape of a
batch's entry list and the bulk of the data on the wire, has a fast path
both ways instead: `pack_pairs` and `Reader.skip_pairs` frame or check
each pair in one struct step. A layout of only `int` fields packs in one
struct step too (`u64_packer`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from enum import Enum
from operator import attrgetter
from typing import Iterable, Union, get_args, get_origin, get_type_hints


class Packed:
    """Bytes that are already the canonical packing of one or more fields."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes):
        self.raw = raw


Field = Union[int, bytes, str, Packed, Iterable["Field"]]

_HEADER = struct.Struct(">cI").unpack_from    # tag, then a length or a count
_U64 = struct.Struct(">cQ").unpack_from       # tag, then the value
# the framing of one [u64, bytes] pair: list of 2, the u64, the byte length
_PAIR = struct.Struct(">cIcQcI")


def pack(*fields: Field) -> bytes:
    """Serialize fields canonically, in the order given."""
    out = bytearray()
    packers = _PACKERS
    for field in fields:
        packers.get(type(field), _pack_other)(out, field)
    return bytes(out)


def _pack_int(out: bytearray, field: int) -> None:
    out += b"I"
    try:
        out += field.to_bytes(8, "big")
    except OverflowError:
        raise ValueError(f"integer field out of u64 range: {field}") from None


def _pack_bytes(out: bytearray, field: bytes) -> None:
    out += b"B"
    out += len(field).to_bytes(4, "big")
    out += field


def _pack_str(out: bytearray, field: str) -> None:
    raw = field.encode("utf-8")
    out += b"S"
    out += len(raw).to_bytes(4, "big")
    out += raw


def _pack_seq(out: bytearray, field) -> None:
    out += b"L"
    out += len(field).to_bytes(4, "big")
    packers = _PACKERS
    for item in field:
        packers.get(type(item), _pack_other)(out, item)


def _pack_packed(out: bytearray, field: Packed) -> None:
    out += field.raw


def _pack_other(out: bytearray, field) -> None:
    """Subclasses of the field types pack as their base; anything else,
    and bool in particular, is not a canonical field."""
    if isinstance(field, bool):
        raise TypeError("bool is not a canonical field type")
    for base in (int, bytes, str, list, tuple):
        if isinstance(field, base):
            return _PACKERS[base](out, field)
    raise TypeError(f"cannot pack field of type {type(field).__name__}")


_PACKERS = {
    int: _pack_int,
    bytes: _pack_bytes,
    str: _pack_str,
    list: _pack_seq,
    tuple: _pack_seq,
    Packed: _pack_packed,
}


def pack_pairs(pairs: Iterable[tuple[int, bytes]]) -> bytes:
    """`pack([[n, raw], ...])` for a list of (u64, bytes) pairs, the shape of
    a batch's entry list, framed in one struct step per pair."""
    parts = [b""]             # the list header, once the pairs are counted
    frame = _PAIR.pack
    try:
        for n, raw in pairs:
            parts.append(frame(b"L", 2, b"I", n, b"B", len(raw)))
            parts.append(raw)
    except struct.error:
        raise ValueError("integer field out of u64 range") from None
    parts[0] = b"L" + (len(parts) // 2).to_bytes(4, "big")
    return b"".join(parts)


def digest(label: str, *fields: Field) -> bytes:
    """32-byte domain-separated digest of the packed fields."""
    return hashlib.sha256(pack(label, *fields)).digest()


class Reader:
    """Sequential decoder for canonically packed bytes.

    Raises ValueError on any malformation; callers treat that as a reject.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self, buf: bytes, pos: int = 0):
        self._buf = buf
        self._pos = pos

    def _header(self, tag: bytes) -> int:
        """Check one tag and read its 4-byte length or count, in one step."""
        try:
            got, n = _HEADER(self._buf, self._pos)
        except struct.error:
            raise ValueError("truncated field") from None
        if got != tag:
            raise ValueError(f"expected field tag {tag!r}, got {got!r}")
        self._pos += 5
        return n

    def _body(self, tag: bytes) -> bytes:
        n = self._header(tag)
        start = self._pos
        end = start + n
        if end > len(self._buf):
            raise ValueError("truncated field")
        self._pos = end
        return self._buf[start:end]

    def u64(self) -> int:
        try:
            got, value = _U64(self._buf, self._pos)
        except struct.error:
            raise ValueError("truncated field") from None
        if got != b"I":
            raise ValueError(f"expected field tag b'I', got {got!r}")
        self._pos += 9
        return value

    def bytes_(self) -> bytes:
        return self._body(b"B")

    def skip_pairs(self) -> int:
        """Step over a list of [u64, bytes] pairs, as `pack_pairs` makes,
        checking each pair's arity, tags and length; return the count."""
        count = self.seq_len()
        buf, pos = self._buf, self._pos
        frame = _PAIR.unpack_from
        try:
            for _ in range(count):
                list_tag, arity, int_tag, _, bytes_tag, n = frame(buf, pos)
                if (list_tag != b"L" or arity != 2 or int_tag != b"I"
                        or bytes_tag != b"B"):
                    raise ValueError("malformed [u64, bytes] pair")
                pos += 19 + n
        except struct.error:
            raise ValueError("truncated field") from None
        if pos > len(buf):
            raise ValueError("truncated field")
        self._pos = pos
        return count

    def str_(self) -> str:
        return self._body(b"S").decode("utf-8")

    def seq_len(self) -> int:
        return self._header(b"L")

    def tell(self) -> int:
        return self._pos

    def slice_from(self, start: int) -> bytes:
        """The bytes read since position `start`."""
        return self._buf[start:self._pos]

    def done(self) -> bool:
        return self._pos >= len(self._buf)

    def expect_done(self) -> None:
        if not self.done():
            raise ValueError("trailing bytes after message")


class Wire:
    """Base of a frozen dataclass whose canonical packing is the list of its
    fields, in declaration order, each packed by its annotation:

    * `int`, `bytes`, `str` -> as themselves
    * a `str` Enum          -> its value
    * `tuple[T, ...]`       -> a list of T
    * `tuple[A, B]`, ...    -> a list of exactly those fields
    * any other type        -> its own `to_field` and `read_from`: a nested
      `Wire`, or a type that keeps its own bytes

    Reading checks the length of every list it reads, so a value of the
    wrong arity raises ValueError. A class's layout is worked out from its
    annotations once, on first use.
    """

    def to_field(self) -> list:
        """The fields, in declaration order, as `pack` takes them."""
        return _layout(type(self))[0](self)

    @classmethod
    def read_fields(cls, r: Reader, head: tuple = ()):
        """Read the fields after `head`, which are given, with no list
        header in front of them, and build the value."""
        readers = _layout(cls)[1]
        return cls(*head, *[read(r) for read in readers[len(head):]])

    @classmethod
    def read_from(cls, r: Reader):
        if r.seq_len() != len(_layout(cls)[1]):
            raise ValueError(f"malformed {cls.__name__}")
        return cls.read_fields(r)


_LAYOUTS: dict = {}
_READERS = {int: Reader.u64, bytes: Reader.bytes_, str: Reader.str_}


def _layout(cls: type) -> tuple:
    """(encode, readers, u64 packer) of a `Wire` class: encode maps a
    value to its field list, and readers holds one read per field."""
    layout = _LAYOUTS.get(cls)
    if layout is None:
        hints = get_type_hints(cls)
        names = [f.name for f in fields(cls)]
        codecs = [_codec(hints[name]) for name in names]
        get = (attrgetter(*names) if len(names) > 1
               else lambda value: (getattr(value, names[0]),))
        special = [(i, enc) for i, (enc, _) in enumerate(codecs) if enc]

        def encode(value) -> list:
            out = list(get(value))
            for i, enc in special:
                out[i] = enc(out[i])
            return out

        frame = struct.Struct(">" + "cQ" * len(names)).pack
        tags = [b"I"] * (2 * len(names))

        def pack_u64s(value) -> bytes:
            fields = get(value)
            if {int}.issuperset(map(type, fields)):      # no bool, for one
                args = tags.copy()
                args[1::2] = fields
                try:
                    return frame(*args)
                except struct.error:                     # outside u64
                    pass
            return pack(*fields)        # packs, or raises as it always does

        u64s = {hints[name] for name in names} == {int}
        layout = _LAYOUTS[cls] = (encode, [read for _, read in codecs],
                                  pack_u64s if u64s else None)
    return layout


def u64_packer(cls: type):
    """For a `Wire` class whose fields are all `int`, a function that packs
    a value's fields as `pack` would, in one struct step; else None."""
    return _layout(cls)[2]


def _codec(tp) -> tuple:
    """(encode, read) for one annotation; encode is None where the value
    packs as it is."""
    if tp in _READERS:
        return None, _READERS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("value"), lambda r: tp(r.str_())
    args = get_args(tp)
    if get_origin(tp) is tuple and args[-1] is Ellipsis:
        enc, read = _codec(args[0])
        return (enc and (lambda value: [enc(item) for item in value]),
                lambda r: tuple([read(r) for _ in range(r.seq_len())]))
    if get_origin(tp) is tuple:
        codecs = [_codec(arg) for arg in args]

        def read_fixed(r: Reader) -> tuple:
            if r.seq_len() != len(codecs):
                raise ValueError(f"malformed {tp}")
            return tuple([read(r) for _, read in codecs])

        return (lambda value: [enc(item) if enc else item
                               for (enc, _), item in zip(codecs, value)],
                read_fixed)
    return tp.to_field, lambda r: tp.read_from(r)
