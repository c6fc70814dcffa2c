"""Wire formats for every protocol message.

Layout: two raw header bytes (wire version, message tag) followed by the
canonically packed fields, starting with the instance id and sender. Every
carried structure reuses the canonical encodings of its type, so a digest
computed over a message body is stable across nodes. Decoding failures
raise ValueError and are treated as silent rejects by receivers.

Both directions do their deterministic work once. `encode` stores the
bytes on the frozen message the first time it runs, so a broadcast is
packed once, not once per recipient; a rewritten message (say, a
byzantine forgery made with `dataclasses.replace`) is a new object and is
packed afresh. A carried booth profile, data batch or transaction is
spliced into the message as the canonical bytes it keeps (see
`codec.Packed`), not packed field by field.

`encode` also puts the message into the decode intern under its bytes.
The codec is canonical, so those bytes parse to a message equal to the
one encoded, and `decode_message` hands every receiver the sender's own
object: a run parses none of the messages it sends. Only bytes this
process did not encode are parsed (tests, fuzzing, or a message still in
flight when the intern was emptied), and the result is interned by the
raw bytes, so the copies that reach every booth member are parsed once.
A parsed profile, batch or transaction keeps the slice it was read from
as its canonical bytes; a batch checks its entries' framing but builds no
entry objects. Messages and all they carry are frozen, so sharing them is
safe. Only successful decodes are stored: malformed bytes raise on every
call. The intern holds at most `INTERN_SIZE` entries, is emptied when
full, and is emptied by `clear_caches` at the start and the end of every
`harness.run`. Wire bytes are charged by the network per delivery, so
modeled cost does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from .booths import BoothProfile
from .codec import pack, Reader, digest
from .crypto import AggregateSignature, PartialSignature
from .ledger import (
    DataBatch,
    Transaction,
    _agg_read_from,
    _agg_to_field,
    _partial_read_from,
    _partial_to_field,
)

WIRE_VERSION = 1


@dataclass(frozen=True)
class _Message:
    TAG: ClassVar[int] = 0

    instance_id: int
    sender: int

    def body_fields(self) -> list:
        raise NotImplementedError

    def encode(self) -> bytes:
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = bytes((WIRE_VERSION, self.TAG)) + pack(
                self.instance_id, self.sender, *self.body_fields())
            object.__setattr__(self, "_wire", wire)
            _intern(wire, self)
        return wire


@dataclass(frozen=True)
class PreOrder(_Message):
    """O1: proposer asks the ordering booth to endorse a batch."""

    TAG: ClassVar[int] = 1

    ordering_id: int
    batch: DataBatch
    batch_hash: bytes
    booth: BoothProfile
    booth_hash: bytes
    proposer_partial: PartialSignature

    def body_fields(self) -> list:
        return [self.ordering_id, self.batch.to_field(), self.batch_hash,
                self.booth.to_field(), self.booth_hash,
                _partial_to_field(self.proposer_partial)]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "PreOrder":
        return cls(instance_id, sender, r.u64(), DataBatch.read_from(r),
                   r.bytes_(), BoothProfile.read_from(r), r.bytes_(),
                   _partial_read_from(r))


@dataclass(frozen=True)
class OrderReply(_Message):
    """O2: a validator's endorsement of one ordering id."""

    TAG: ClassVar[int] = 2

    ordering_id: int
    partial: PartialSignature

    def body_fields(self) -> list:
        return [self.ordering_id, _partial_to_field(self.partial)]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "OrderReply":
        return cls(instance_id, sender, r.u64(), _partial_read_from(r))


@dataclass(frozen=True)
class OrderMsg(_Message):
    """O3: the certified result; validators append after O4 checks."""

    TAG: ClassVar[int] = 3

    ordering_id: int
    quorum: tuple[int, ...]
    cert: AggregateSignature

    def body_fields(self) -> list:
        return [self.ordering_id, list(self.quorum), _agg_to_field(self.cert)]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "OrderMsg":
        ordering_id = r.u64()
        quorum = tuple(r.u64() for _ in range(r.seq_len()))
        return cls(instance_id, sender, ordering_id, quorum, _agg_read_from(r))


@dataclass(frozen=True)
class PreCommitSeen(_Message):
    """C1, booth members who ordered every entry: hashes only."""

    TAG: ClassVar[int] = 4

    window_start_us: int
    window_len_us: int
    tx_hash: bytes
    first_id: int
    last_id: int
    booth: BoothProfile
    booth_hash: bytes
    proposer_partial: PartialSignature

    def body_fields(self) -> list:
        return [self.window_start_us, self.window_len_us, self.tx_hash,
                self.first_id, self.last_id, self.booth.to_field(),
                self.booth_hash, _partial_to_field(self.proposer_partial)]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "PreCommitSeen":
        return cls(instance_id, sender, r.u64(), r.u64(), r.bytes_(), r.u64(),
                   r.u64(), BoothProfile.read_from(r), r.bytes_(),
                   _partial_read_from(r))


@dataclass(frozen=True)
class PreCommitUnseen(_Message):
    """C1, members outside some ordering booth: full data plus evidence.

    reply_sets maps ordering id to the retained replies (validators plus
    the proposer's own), giving the receiver 2f+1 individually anchored
    signatures per entry.
    """

    TAG: ClassVar[int] = 5

    window_start_us: int
    window_len_us: int
    tx_hash: bytes
    tx: Transaction
    booth: BoothProfile
    booth_hash: bytes
    reply_sets: tuple[tuple[int, tuple[PartialSignature, ...]], ...]
    proposer_partial: PartialSignature

    def body_fields(self) -> list:
        return [
            self.window_start_us, self.window_len_us, self.tx_hash,
            self.tx.to_field(), self.booth.to_field(), self.booth_hash,
            [[oid, [_partial_to_field(p) for p in parts]]
             for oid, parts in self.reply_sets],
            _partial_to_field(self.proposer_partial),
        ]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "PreCommitUnseen":
        start = r.u64()
        length = r.u64()
        tx_hash = r.bytes_()
        tx = Transaction.read_from(r)
        booth = BoothProfile.read_from(r)
        booth_hash = r.bytes_()
        reply_sets = []
        for _ in range(r.seq_len()):
            if r.seq_len() != 2:
                raise ValueError("malformed reply set")
            oid = r.u64()
            parts = tuple(_partial_read_from(r) for _ in range(r.seq_len()))
            reply_sets.append((oid, parts))
        return cls(instance_id, sender, start, length, tx_hash, tx, booth,
                   booth_hash, tuple(reply_sets), _partial_read_from(r))


@dataclass(frozen=True)
class CommitReply(_Message):
    """C2: a consensus-booth member's endorsement of one window."""

    TAG: ClassVar[int] = 6

    window_start_us: int
    partial: PartialSignature

    def body_fields(self) -> list:
        return [self.window_start_us, _partial_to_field(self.partial)]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "CommitReply":
        return cls(instance_id, sender, r.u64(), _partial_read_from(r))


@dataclass(frozen=True)
class CommitMsg(_Message):
    """C3: the commit certificate for one window."""

    TAG: ClassVar[int] = 7

    window_start_us: int
    quorum: tuple[int, ...]
    booth_hash: bytes
    cert: AggregateSignature
    tx_hash: bytes

    def body_fields(self) -> list:
        return [self.window_start_us, list(self.quorum), self.booth_hash,
                _agg_to_field(self.cert), self.tx_hash]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "CommitMsg":
        start = r.u64()
        quorum = tuple(r.u64() for _ in range(r.seq_len()))
        return cls(instance_id, sender, start, quorum, r.bytes_(),
                   _agg_read_from(r), r.bytes_())

    def commit_hash(self) -> bytes:
        """Identity of this commit in gossip: digest of the certified core."""
        return digest("gossip-commit", self.window_start_us, self.booth_hash,
                      self.tx_hash)


@dataclass(frozen=True)
class TraverseHop(object):
    """One gossip hop: remaining lifetime, signed by the forwarding node."""

    lifetime: int
    sig: bytes
    node_id: int

    def to_field(self) -> list:
        return [self.lifetime, self.sig, self.node_id]


def traverse_digest(commit_hash: bytes, lifetime: int) -> bytes:
    return digest("gossip-hop", commit_hash, lifetime)


@dataclass(frozen=True)
class GossipMsg(_Message):
    """Lifetime-bounded dissemination of one committed window."""

    TAG: ClassVar[int] = 8

    commit: CommitMsg
    tx: Transaction
    traverse: tuple[TraverseHop, ...]

    def __post_init__(self):
        # The wire carries only the commit's body, which a receiver reads
        # with the gossip's instance and sender. Holding the commit with
        # them too makes a gossip equal to what its bytes decode to.
        commit = self.commit
        if (commit.instance_id, commit.sender) != (self.instance_id,
                                                   self.sender):
            object.__setattr__(self, "commit", replace(
                commit, instance_id=self.instance_id, sender=self.sender))

    def body_fields(self) -> list:
        return [self.commit.body_fields(), self.tx.to_field(),
                [hop.to_field() for hop in self.traverse]]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "GossipMsg":
        if r.seq_len() != 5:
            raise ValueError("malformed embedded commit")
        commit = CommitMsg.read_body(instance_id, sender, r)
        tx = Transaction.read_from(r)
        hops = []
        for _ in range(r.seq_len()):
            if r.seq_len() != 3:
                raise ValueError("malformed traverse hop")
            hops.append(TraverseHop(r.u64(), r.bytes_(), r.u64()))
        return cls(instance_id, sender, commit, tx, tuple(hops))


@dataclass(frozen=True)
class GossipAck(_Message):
    """Receipt confirmation sent straight to the proposer and the pivot."""

    TAG: ClassVar[int] = 9

    commit_hash: bytes
    propagator: int

    def body_fields(self) -> list:
        return [self.commit_hash, self.propagator]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "GossipAck":
        return cls(instance_id, sender, r.bytes_(), r.u64())


@dataclass(frozen=True)
class Ping(_Message):
    TAG: ClassVar[int] = 10

    seq: int
    sent_at_us: int

    def body_fields(self) -> list:
        return [self.seq, self.sent_at_us]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "Ping":
        return cls(instance_id, sender, r.u64(), r.u64())


@dataclass(frozen=True)
class Pong(_Message):
    TAG: ClassVar[int] = 11

    seq: int
    sent_at_us: int

    def body_fields(self) -> list:
        return [self.seq, self.sent_at_us]

    @classmethod
    def read_body(cls, instance_id: int, sender: int, r: Reader) -> "Pong":
        return cls(instance_id, sender, r.u64(), r.u64())


_BY_TAG = {cls.TAG: cls for cls in (
    PreOrder, OrderReply, OrderMsg, PreCommitSeen, PreCommitUnseen,
    CommitReply, CommitMsg, GossipMsg, GossipAck, Ping, Pong)}

INTERN_SIZE = 1 << 12

_interned: dict[bytes, _Message] = {}


def clear_caches() -> None:
    _interned.clear()


def _intern(raw: bytes, msg: _Message) -> None:
    if len(_interned) >= INTERN_SIZE:
        _interned.clear()
    _interned[raw] = msg


def decode_message(raw: bytes):
    """Parse any protocol message; raises ValueError on malformation.
    A parse that raises stores nothing."""
    msg = _interned.get(raw)
    if msg is None:
        msg = _parse(raw)
        _intern(raw, msg)
    return msg


def _parse(raw: bytes):
    if len(raw) < 2:
        raise ValueError("message too short")
    if raw[0] != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {raw[0]}")
    cls = _BY_TAG.get(raw[1])
    if cls is None:
        raise ValueError(f"unknown message tag {raw[1]}")
    r = Reader(raw, pos=2)
    instance_id = r.u64()
    sender = r.u64()
    msg = cls.read_body(instance_id, sender, r)
    r.expect_done()
    return msg
