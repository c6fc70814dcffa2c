"""Wire formats for every protocol message.

Layout: two raw header bytes (wire version, message tag) followed by the
message's dataclass fields, packed one after another in declaration order
as `codec.Wire` derives them: instance id, sender, then the fields the
class declares. No message is carried inside another: what a gossip
carries of its commit is a `CertifiedCommit` record, the commit's fields
after instance and sender, packed as a list. Decoding failures raise
ValueError and are treated as silent rejects by receivers.

Both directions do their deterministic work once. `encode` packs with
the class's generated encoder (`codec.encoder`, made once per class when
the module loads and kept on the class) and stores the bytes on
the frozen message, so a broadcast is packed once; a rewritten message (a
byzantine forgery made with `dataclasses.replace`) is a new object and is
packed afresh. A carried booth profile, data batch or transaction is
spliced into the message as the canonical bytes it keeps (see
`codec.Packed`), not packed field by field.

`encode` returns a `Frame`: the message's bytes, made afresh per call,
whose `msg` is the message. The network carries frames as bytes, and
`decode_message` hands a receiver the sender's own object by reference
through the frame, so a run parses none of the messages it sends. The
codec is canonical, so those bytes parse to a message equal to the one
encoded. A message does not hold its frames: a frame lives only while its
deliveries are pending, and the message is freed by reference counting
once the last is done. Only bytes that are not a frame are parsed (tests,
fuzzing, a copy of a frame's bytes), strictly, and nothing is memoised. A
parsed profile keeps the slice it was read from as its canonical bytes; a
parsed batch or transaction packs itself again, as a built one does, to
the same bytes. Messages and all they carry are frozen, so sharing them
is safe. Wire bytes are charged by the network per delivery, so modeled
cost does not change.
"""

from __future__ import annotations

from typing import ClassVar

from .booths import BoothProfile
from .codec import (encoder, pack, Reader, digest,  # pack: perfbench
                    record, Wire)
from .crypto import AggregateSignature, PartialSignature
from .ledger import DataBatch, Transaction

WIRE_VERSION = 1


@record
class _Message(Wire):
    """The fields every message starts with: instance and sender."""

    TAG: ClassVar[int] = 0

    __slots__ = ("_wire",)          # the encoding, once `encode` made it

    instance_id: int
    sender: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what `_parse` reads a message of this type with: each message
        # type has one, and nothing else does
        cls.read_body = cls.read_fields
        cls._header = bytes((WIRE_VERSION, cls.TAG))

    def encode(self) -> "Frame":
        wire = self._wire
        if wire is None:
            wire = self._packed()
            _keep_wire(self, wire)
        frame = Frame(wire)
        frame.msg = self
        return frame


_keep_wire = _Message._wire.__set__     # past the frozen `__setattr__`


class Frame(bytes):
    """A message's wire bytes that carry the message (`msg`) they were
    packed from. Slicing or copying gives plain bytes."""


@record
class PreOrder(_Message):
    """O1: proposer asks the ordering booth to endorse a batch."""

    TAG: ClassVar[int] = 1

    ordering_id: int
    batch: DataBatch
    batch_hash: bytes
    booth: BoothProfile
    booth_hash: bytes
    proposer_partial: PartialSignature


@record
class OrderReply(_Message):
    """O2: a validator's endorsement of one ordering id."""

    TAG: ClassVar[int] = 2

    ordering_id: int
    partial: PartialSignature


@record
class OrderMsg(_Message):
    """O3: the certified result; validators append after O4 checks."""

    TAG: ClassVar[int] = 3

    ordering_id: int
    cert: AggregateSignature


@record
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


@record
class PreCommitUnseen(_Message):
    """C1, members outside some ordering booth: the full transaction. Its
    entries' ordering certificates, checked against the membership links
    it carries and the identity registry, are all the evidence needed."""

    TAG: ClassVar[int] = 5

    window_start_us: int
    window_len_us: int
    tx_hash: bytes
    tx: Transaction
    booth: BoothProfile
    booth_hash: bytes
    proposer_partial: PartialSignature


@record
class CommitReply(_Message):
    """C2: a consensus-booth member's endorsement of one window."""

    TAG: ClassVar[int] = 6

    window_start_us: int
    partial: PartialSignature


@record
class CommitMsg(_Message):
    """C3: the commit certificate for one window."""

    TAG: ClassVar[int] = 7

    window_start_us: int
    booth_hash: bytes
    cert: AggregateSignature
    tx_hash: bytes

    def certified(self) -> "CertifiedCommit":
        """What gossip carries of this commit: all but instance and sender."""
        return CertifiedCommit(self.window_start_us, self.booth_hash,
                               self.cert, self.tx_hash)

    def commit_hash(self) -> bytes:
        return self.certified().commit_hash()


@record
class CertifiedCommit(Wire):
    """A certified window as gossip carries it: the fields of its
    `CommitMsg` after instance and sender."""

    window_start_us: int
    booth_hash: bytes
    cert: AggregateSignature
    tx_hash: bytes

    def commit_hash(self) -> bytes:
        """Identity of this commit in gossip: digest of the certified core."""
        return digest("gossip-commit", self.window_start_us, self.booth_hash,
                      self.tx_hash)


@record
class TraverseHop(Wire):
    """One gossip hop: remaining lifetime, signed by the forwarding node."""

    lifetime: int
    sig: bytes
    node_id: int


def traverse_digest(commit_hash: bytes, lifetime: int) -> bytes:
    return digest("gossip-hop", commit_hash, lifetime)


@record
class GossipMsg(_Message):
    """Lifetime-bounded dissemination of one committed window."""

    TAG: ClassVar[int] = 8

    commit: CertifiedCommit
    tx: Transaction
    traverse: tuple[TraverseHop, ...]


@record
class GossipAck(_Message):
    """Receipt confirmation sent straight to the proposer and the pivot."""

    TAG: ClassVar[int] = 9

    commit_hash: bytes


@record
class Ping(_Message):
    """A proposer's liveness probe: one per probe round, sent to every
    member, stamped with the round's seq and send time."""

    TAG: ClassVar[int] = 10

    seq: int
    sent_at_us: int


@record
class Pong(_Message):
    """The answer to a ping: its seq, and the send time it echoes, which
    the membership unit does not trust: it times the round trip from its
    own send time of the round."""

    TAG: ClassVar[int] = 11

    seq: int
    sent_at_us: int


_BY_TAG = {cls.TAG: cls for cls in (
    PreOrder, OrderReply, OrderMsg, PreCommitSeen, PreCommitUnseen,
    CommitReply, CommitMsg, GossipMsg, GossipAck, Ping, Pong)}

for _cls in _BY_TAG.values():   # all fields behind the header, as a method
    _cls._packed = encoder(_cls, _cls._header)
del _cls


def decode_message(raw: bytes):
    """The message a frame carries, or a parse of any other bytes; raises
    ValueError on malformation."""
    return raw.msg if type(raw) is Frame else _parse(raw)


def _parse(raw: bytes):
    if len(raw) < 2:
        raise ValueError("message too short")
    if raw[0] != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {raw[0]}")
    cls = _BY_TAG.get(raw[1])
    if cls is None:
        raise ValueError(f"unknown message tag {raw[1]}")
    r = Reader(raw, pos=2)
    msg = cls.read_body(r)
    r.expect_done()
    return msg
