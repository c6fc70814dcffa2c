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
from the field annotations. A type packs one way wherever it sits, alone
or as a field of another. The encoder is generated code, one flat
function per class (`encoder`), that packs a value in one pass. A list of
[u64, bytes] pairs, the shape of a batch's entry list and the bulk of the
data on the wire, has a fast path both ways instead: `pack_pairs` and
`Reader.skip_pairs` frame or check each pair in one struct step, and
`pack_pair_lists` frames the pairs of many equal lists in one numpy step.

A record, a frozen dataclass that a run builds per message or per log
entry, gets its constructor the way it gets its encoder: generated once
per class from its fields (`record`), a flat `__init__` that stores each
value through its slot's member descriptor. Dataclass's own constructor
for a frozen class has to get past the frozen `__setattr__`, so it calls
`object.__setattr__` once per field. A record keeps its fields in
`__slots__`, so an instance carries no `__dict__`: a run holds thousands
of records at once, and a dict more than triples the memory of a small
record. A record that caches through `cached_property` needs a dict to
cache into, so it keeps one and its constructor stores the fields there
in one step: `BoothProfile` and `Transaction`, which also keep there the
bytes they were decoded from.
"""

from __future__ import annotations

import hashlib
import inspect
import struct
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache, cached_property
from itertools import count, groupby
from typing import (ClassVar, Iterable, Union, dataclass_transform, get_args,
                    get_origin, get_type_hints)

import numpy as np


class Packed:
    """Bytes that are already the canonical packing of one or more fields."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes):
        self.raw = raw


Field = Union[int, bytes, str, Packed, Iterable["Field"]]

_HEADER = struct.Struct(">cI")         # tag, then a length or a count
_U64 = struct.Struct(">cQ")            # tag, then the value
# the framing of one [u64, bytes] pair: list of 2, the u64, the byte length
_PAIR = struct.Struct(">cIcQcI")
_PAIR_U64 = slice(6, 14)               # where the u64 sits in that framing


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
    a batch's entry list, framed in one struct step per pair. A pair that is
    not exactly an int and bytes (a bool, a bytearray, ...) goes through
    `pack`, so it packs, or raises, as `pack` does."""
    parts = [b""]             # the list header, once the pairs are counted
    frame = _PAIR.pack
    try:
        for n, raw in pairs:
            if type(n) is int and type(raw) is bytes:
                parts += (frame(b"L", 2, b"I", n, b"B", len(raw)), raw)
            else:
                parts += (pack([n, raw]), b"")
    except struct.error:
        raise ValueError("integer field out of u64 range") from None
    parts[0] = b"L" + (len(parts) // 2).to_bytes(4, "big")
    return b"".join(parts)


def pack_pair_lists(first_seq: int, payloads: np.ndarray,
                    per_list: int) -> list[bytes]:
    """`pack_pairs` of the pairs (first_seq, row 0), (first_seq + 1, row 1),
    ... over the rows of `payloads`, a 2-D uint8 array, cut into lists of
    `per_list` pairs, which divides the row count. All pairs are framed in
    one vectorised step; each list is one row of the result."""
    rows, size = payloads.shape
    if first_seq < 0 or first_seq + rows > 1 << 64:
        raise ValueError("integer field out of u64 range")
    shape = (rows // per_list, per_list)
    lists = np.empty((shape[0], 5 + per_list * (_PAIR.size + size)), np.uint8)
    lists[:, :5] = np.frombuffer(b"L" + per_list.to_bytes(4, "big"), np.uint8)
    pairs = lists[:, 5:].reshape(*shape, _PAIR.size + size)    # a view
    pairs[..., :_PAIR.size] = np.frombuffer(
        _PAIR.pack(b"L", 2, b"I", 0, b"B", size), np.uint8)
    seqs = np.arange(first_seq, first_seq + rows, dtype=">u8")
    pairs[..., _PAIR_U64] = seqs.view(np.uint8).reshape(*shape, 8)
    pairs[..., _PAIR.size:] = payloads.reshape(*shape, size)
    return [row.tobytes() for row in lists]


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
            got, n = _HEADER.unpack_from(self._buf, self._pos)
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
            got, value = _U64.unpack_from(self._buf, self._pos)
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
    * another `Wire`        -> the list of its fields
    * any other type        -> its own `to_field` and `read_from`: a type
      that keeps its own bytes

    Reading checks the length of every list it reads, so a value of the
    wrong arity raises ValueError. A class's encoder and readers are worked
    out from its annotations once, on first use.
    """

    __slots__ = ()

    def to_field(self) -> Packed:
        """The value as one field, as `pack` takes it: its packing."""
        return Packed(encoder(type(self))(self))

    @classmethod
    def read_fields(cls, r: Reader):
        """Read the fields, with no list header in front of them, and build
        the value."""
        return cls(*[read(r) for read in _readers(cls)])

    @classmethod
    def read_from(cls, r: Reader):
        if r.seq_len() != len(_readers(cls)):
            raise ValueError(f"malformed {cls.__name__}")
        return cls.read_fields(r)


_READERS = {int: Reader.u64, bytes: Reader.bytes_, str: Reader.str_}


@cache
def _readers(cls: type) -> list:
    """One read per field of a `Wire` class."""
    hints = get_type_hints(cls)
    return [_reader(hints[f.name]) for f in fields(cls)]


def _reader(tp):
    if tp in _READERS:
        return _READERS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return lambda r: tp(r.str_())
    if get_origin(tp) is tuple:
        read = _reader(_item(tp))
        return lambda r: tuple([read(r) for _ in range(r.seq_len())])
    return lambda r: tp.read_from(r)


def _item(tp):
    """T of a `tuple[T, ...]` annotation."""
    item, rest = get_args(tp)
    if rest is not Ellipsis:
        raise TypeError(f"unsupported wire annotation {tp}")
    return item


@cache
def encoder(cls: type, head: bytes = None):
    """The generated encoder of a `Wire` class: a function that packs a
    value's fields behind `head` (by default the header of the list they
    form), in one pass. It takes each field straight from the value,
    writes a header, or a run of consecutive int fields, with one `struct`
    step, inlines a nested `Wire` and splices a type with its own
    `to_field` as the bytes that gives. A field whose value is not
    exactly its annotated type (a bool, an int subclass, None, ...), or an
    int out of u64 range, goes through `pack` with the rest of its run, so
    it packs, or raises, as `pack` does."""
    consts: dict = {}                       # value -> its name in the code

    def const(value) -> str:
        return consts.setdefault(value, f"c{len(consts)}")

    body = _joined("v", cls, head, const, (f"x{i}" for i in count()))
    scope: dict = {}
    exec(f"def make({', '.join(consts.values())}):\n return lambda v: {body}",
         globals(), scope)
    return scope["make"](*consts)


def _joined(src: str, cls: type, head, const, fresh) -> str:
    """Source of an expression that packs the fields of `src`, a `cls`
    value, behind `head`."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    parts = [const(_HEADER.pack(b"L", len(names)) if head is None else head)]
    for ints, run in groupby(names, lambda name: hints[name] is int):
        parts += [_ints([f"{src}.{n}" for n in run], const, fresh)] if ints \
            else [_packing(f"{src}.{n}", hints[n], const, fresh) for n in run]
    return "b''.join((" + ", ".join(parts) + ",))"


def _ints(srcs: list[str], const, fresh) -> str:
    """Source of an expression that packs the int values of `srcs` in one
    `struct` step if each is exactly an int in u64 range (so is their OR),
    else with `pack`."""
    xs = [next(fresh) for _ in srcs]
    exact = " is ".join(f"type({x} := {src})" for x, src in zip(xs, srcs))
    fast = ", ".join(f"b'I', {x}" for x in xs)
    run = const(struct.Struct(">" + "cQ" * len(xs)).pack)
    return (f"({run}({fast}) if {exact} is {const(int)} "
            f"and -1 < ({' | '.join(xs)}) < {1 << 64} "
            f"else pack({', '.join(srcs)}))")


def _packing(src: str, tp, const, fresh) -> str:
    """Source of an expression that packs the value of `src`, annotated
    `tp`: in one pass if its type is exactly `tp`, else with `pack`."""
    if tp is int:
        return _ints([src], const, fresh)
    x = next(fresh)
    exact = f"type({x} := {src}) is {const(tuple if get_origin(tp) else tp)}"
    header = const(_HEADER.pack)
    if tp is bytes:
        fast = f"{header}(b'B', len({x})) + {x}"
    elif get_origin(tp) is tuple:
        item = next(fresh)
        fast = (f"{header}(b'L', len({x})) + b''.join(["
                f"{_packing(item, _item(tp), const, fresh)} for {item} in {x}])")
    elif tp is str or issubclass(tp, Enum):
        text = x if tp is str else f"{x}.value"
        fast = f"{header}(b'S', len({x}s := {text}.encode())) + {x}s"
    elif issubclass(tp, Wire) and tp.to_field is Wire.to_field:
        fast = _joined(x, tp, None, const, fresh)
    else:
        fast = f"{x}.to_field().raw"
    return f"({fast} if {exact} else pack({x}))"


@dataclass_transform(frozen_default=True)
def record(cls: type) -> type:
    """`cls` made a frozen dataclass with `init=False` and given a generated
    `__init__`: it takes the fields as dataclass's would (in order, by
    position or name, with their defaults), stores them and calls
    `__post_init__`, if the class has one. Unless the class caches through
    a `cached_property`, it is made again with its own fields, and any
    slots it declares, as `__slots__`, and the constructor stores each
    field through its slot and starts each slot declared beside the
    fields, in the class or a base, as None. A field it could not take so
    (a default factory, `init=False`, keyword-only, an `InitVar`) is
    refused when the class is made."""
    doc = cls.__doc__
    cls = dataclass(frozen=True, init=False)(cls)
    fields_ = fields(cls)
    names = [f.name for f in fields_]
    if any(not f.init or f.kw_only or f.default_factory is not MISSING
           for f in fields_) or any(
            get_origin(get_type_hints(cls)[name]) is not ClassVar
            for name in cls.__dataclass_fields__ if name not in names):
        raise TypeError(f"record {cls.__name__} has a field that only "
                        "dataclass's own constructor takes")
    scope = {f"d_{f.name}": f.default for f in fields_
             if f.default is not MISSING}       # where the def finds them
    params = "".join(f", {n}=d_{n}" if f"d_{n}" in scope else f", {n}"
                     for n in names)
    if any(isinstance(value, cached_property)
           for klass in cls.__mro__ for value in vars(klass).values()):
        stores = "self.__dict__.update(" + ", ".join(
            f"{n}={n}" for n in names) + ")"
    else:
        cls = _slotted(cls, names)
        caches = [s for klass in cls.__mro__
                  for s in vars(klass).get("__slots__", ()) if s not in names]
        scope.update({f"s_{n}": getattr(cls, n).__set__
                      for n in names + caches})
        stores = "; ".join([f"s_{n}(self, {n})" for n in names]
                           + [f"s_{n}(self, None)" for n in caches])
    post = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self{params}):\n {stores}{post}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    if doc is None:             # dataclass's, from the constructor it saw
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls))
    return cls


def _slotted(cls: type, names: list[str]) -> type:
    """The dataclass `cls` made again with `__slots__`: the slots it
    declares, then its fields that no base holds a slot for. Slots can only
    be given when a class is made. The methods that name the class through
    a closure cell (a zero-argument `super()`, dataclass's frozen
    `__setattr__`) are pointed at the new one."""
    inherited = {s for klass in cls.__mro__[1:]
                 for s in vars(klass).get("__slots__", ())}
    slots = (*vars(cls).get("__slots__", ()),
             *[n for n in names if n not in inherited])
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in {*slots, "__dict__", "__weakref__"}}
    made = type(cls)(cls.__name__, cls.__bases__,
                     {**namespace, "__slots__": slots})
    made.__qualname__ = cls.__qualname__
    for value in namespace.values():
        for cell in getattr(getattr(value, "__func__", value),
                            "__closure__", None) or ():
            if cell.cell_contents is cls:
                cell.cell_contents = made
    return made
