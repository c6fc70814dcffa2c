"""Wire formats for every protocol message.

Layout: two raw header bytes (wire version, message tag) followed by the
message's dataclass fields, packed one after another in declaration order
as `codec.Wire` derives them: instance id, sender, then the fields the
class declares. A message carried inside another (a gossip's commit)
packs as the list of its fields after instance and sender. Decoding
failures raise ValueError and are treated as silent rejects by receivers.

Both directions do their deterministic work once. `encode` packs with
the class's generated encoder (`codec.encoder`, made once per class when
the module loads and kept on the class) and stores the bytes on
the frozen message, so a broadcast is packed once; a rewritten message (a
byzantine forgery made with `dataclasses.replace`) is a new object and is
packed afresh. A carried booth profile, data batch or transaction is
spliced into the message as the canonical bytes it keeps (see
`codec.Packed`), not packed field by field.

`encode` also `remember`s the message under its bytes in the run memo
(`crypto.recall`). The codec is canonical, so those bytes parse to a
message equal to the one encoded, and `decode_message` hands every
receiver the sender's own object: a run parses none of the messages it
sends. Only bytes this process did not encode are parsed (tests, fuzzing,
or a message still in flight when the memo was emptied), and the result is
memoised under the raw bytes, so the copies that reach every booth member
are parsed once. A parsed profile, batch or transaction keeps the slice it
was read from as its canonical bytes; a batch checks its entries' framing
but builds no entry objects. Messages and all they carry are frozen, so
sharing them is safe. A parse that raises stores nothing: malformed bytes
raise on every call. Wire bytes are charged by the network per delivery,
so modeled cost does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar

from .booths import BoothProfile
from .codec import encoder, pack, Packed, Reader, digest, Wire  # pack: perfbench
from .crypto import AggregateSignature, PartialSignature, recall, remember
from .ledger import DataBatch, Transaction

WIRE_VERSION = 1


@dataclass(frozen=True)
class _Message(Wire):
    TAG: ClassVar[int] = 0

    instance_id: int
    sender: int

    _wire = None                    # the encoding, once `encode` made it

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what `_parse` reads a message of this type with: each message
        # type has one, and nothing else does
        cls.read_body = cls.read_fields
        cls._header = bytes((WIRE_VERSION, cls.TAG))

    def encode(self) -> bytes:
        wire = self._wire
        if wire is None:
            wire = self.__dict__["_wire"] = self._packed()
            remember(("msg", wire), self)
        return wire

    def to_field(self) -> Packed:
        """A message carried inside another packs as its body: the list of
        the fields after its instance and sender, which the carrier
        supplies."""
        return Packed(encoder(type(self), skip=2)(self))

    @classmethod
    def read_from(cls, r: Reader) -> "_Message":
        """Read a carried message's body. It holds instance and sender 0
        until its carrier gives it the carrier's (see `GossipMsg`)."""
        if r.seq_len() != len(fields(cls)) - 2:
            raise ValueError(f"malformed embedded {cls.__name__}")
        return cls.read_fields(r, (0, 0))


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


@dataclass(frozen=True)
class OrderReply(_Message):
    """O2: a validator's endorsement of one ordering id."""

    TAG: ClassVar[int] = 2

    ordering_id: int
    partial: PartialSignature


@dataclass(frozen=True)
class OrderMsg(_Message):
    """O3: the certified result; validators append after O4 checks."""

    TAG: ClassVar[int] = 3

    ordering_id: int
    cert: AggregateSignature


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CommitReply(_Message):
    """C2: a consensus-booth member's endorsement of one window."""

    TAG: ClassVar[int] = 6

    window_start_us: int
    partial: PartialSignature


@dataclass(frozen=True)
class CommitMsg(_Message):
    """C3: the commit certificate for one window."""

    TAG: ClassVar[int] = 7

    window_start_us: int
    booth_hash: bytes
    cert: AggregateSignature
    tx_hash: bytes

    def commit_hash(self) -> bytes:
        """Identity of this commit in gossip: digest of the certified core."""
        return digest("gossip-commit", self.window_start_us, self.booth_hash,
                      self.tx_hash)


@dataclass(frozen=True)
class TraverseHop(Wire):
    """One gossip hop: remaining lifetime, signed by the forwarding node."""

    lifetime: int
    sig: bytes
    node_id: int


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


@dataclass(frozen=True)
class GossipAck(_Message):
    """Receipt confirmation sent straight to the proposer and the pivot."""

    TAG: ClassVar[int] = 9

    commit_hash: bytes
    propagator: int


@dataclass(frozen=True)
class Ping(_Message):
    TAG: ClassVar[int] = 10

    seq: int
    sent_at_us: int


@dataclass(frozen=True)
class Pong(_Message):
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
    """Parse any protocol message; raises ValueError on malformation."""
    return recall(("msg", raw), _parse, raw)


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
