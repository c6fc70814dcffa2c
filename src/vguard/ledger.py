"""Log entries, windowed transactions, and the two-chain ledger.

A data batch is carried as the canonical bytes of its entry list from the
moment the workload packs it: it is hashed, sent, logged and committed as
those bytes, and its entries are parsed only to export them. The other
types that go on the wire are `codec.Wire` dataclasses, whose layout is
their field list; a transaction keeps the bytes it was packed as or read
from. The JSON export is a separate format, but it too is read off the
field list: each exported object is its type's fields, under the few
renames in `_JSON_NAMES`.

The total order log holds what ordering produced: one certified entry per
ordering id. Consensus slices the proposer's log into fixed windows, prunes
repeated membership data into run-length links, and commits the result as a
transaction plus a commit record. A link is a run of one booth: consecutive
entries ordered in the same booth share it, whoever signed them, because
each entry's certificate names its own signers. A node's ledger is
therefore two chains that share links: the data chain (commit record +
transaction per window) and the membership chain, which is the links of
the committed transactions, in commit order.

The transaction hash deliberately covers only the agreed data: window
bounds and the ordered (ordering id, batch hash) pairs. Membership is
certified per-entry by the ordering certificate instead, which is what
lets two runs that shuttle across different booths commit byte-identical
transaction hashes for the same input stream.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property
from typing import (Callable, Collection, Iterable, Iterator, Optional,
                    Sequence, get_args, get_origin, get_type_hints)

import numpy as np

from .booths import BoothProfile
from .codec import (digest, pack, pack_pair_lists,  # pack: perfbench
                    pack_pairs, Packed, Reader, record, Wire)
from .crypto import AggregateSignature, Identity, KeyService, recall
from .errors import DuplicateOrderingId, RejectReason, WindowError


# -- data entries and batches --------------------------------------------

@dataclass(frozen=True)
class DataEntry:
    """One client payload and the sequence number its origin gave it."""

    origin_seq: int
    payload: bytes


class DataBatch:
    """Up to batch-size entries bound together by one hash.

    A batch holds only the canonical packing of its entry list, a list of
    [origin_seq, payload] pairs, and the entry count. That packing is what
    it is hashed by, carried on the wire in and compared by, so no entry
    objects are kept; `entries` parses them on demand. A batch is
    immutable.
    """

    __slots__ = ("packed", "count", "_hash")

    def __init__(self, entries: Iterable[DataEntry] = ()):
        pairs = [(e.origin_seq, e.payload) for e in entries]
        self._set(pack_pairs(pairs), len(pairs))

    def _set(self, packed: bytes, count: int) -> None:
        self.packed = packed
        self.count = count
        self._hash = None

    @classmethod
    def _of(cls, packed: bytes, count: int) -> "DataBatch":
        batch = cls.__new__(cls)
        batch._set(packed, count)
        return batch

    @classmethod
    def consecutive(cls, first_seq: int, payloads: np.ndarray,
                    count: int) -> list["DataBatch"]:
        """Batches of `count` entries each: entries first_seq, first_seq + 1,
        ... carrying the rows of `payloads`, a 2-D uint8 array, packed
        straight into the batches' bytes."""
        return [cls._of(packed, count)
                for packed in pack_pair_lists(first_seq, payloads, count)]

    @property
    def batch_hash(self) -> bytes:
        if self._hash is None:
            self._hash = digest("batch", Packed(self.packed))
        return self._hash

    @property
    def entries(self) -> tuple[DataEntry, ...]:
        r = Reader(self.packed)
        out = []
        for _ in range(r.seq_len()):
            r.seq_len()
            out.append(DataEntry(r.u64(), r.bytes_()))
        return tuple(out)

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataBatch):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:
        return f"DataBatch({self.count} entries, {len(self.packed)} bytes)"

    def to_field(self) -> Packed:
        """The batch as one field: a list holding its entry list."""
        return Packed(b"L\x00\x00\x00\x01" + self.packed)

    @classmethod
    def read_from(cls, r: Reader) -> "DataBatch":
        """Check every entry's framing and keep the entry list as read: it
        is its own canonical packing."""
        if r.seq_len() != 1:
            raise ValueError("malformed batch")
        start = r.tell()
        n = r.skip_pairs()
        return cls._of(r.slice_from(start), n)


def order_cert_digest(ordering_id: int, batch_hash: bytes, booth_hash: bytes) -> bytes:
    """Digest certified by ordering: binds id, data, and ordering booth."""
    args = ("order-cert", ordering_id, batch_hash, booth_hash)
    return recall(args, digest, *args)


def commit_cert_digest(window_start_us: int, tx_hash: bytes, booth_hash: bytes) -> bytes:
    """Digest certified by consensus: binds window, data, consensus booth."""
    args = ("commit-cert", window_start_us, tx_hash, booth_hash)
    return recall(args, digest, *args)


# -- total order log ------------------------------------------------------

@record
class LogEntry:
    """One ordered batch with its certificate. The certificate is the
    entry's whole evidence: anyone holding the identity registry can check
    it against the entry's booth, inside the booth or not."""

    ordering_id: int
    batch: DataBatch
    booth_hash: bytes
    cert: AggregateSignature
    appended_at_us: int = 0

    @property
    def batch_hash(self) -> bytes:
        return self.batch.batch_hash


class TotalOrderLog:
    """Append-only map from ordering id to certified entry.

    Conflicting appends for one id raise DuplicateOrderingId; that exception
    firing on a correct node is the total-order violation signal the safety
    suites assert against. Re-appending identical content is a no-op so that
    duplicated deliveries stay harmless.
    """

    def __init__(self):
        self._entries: dict[int, LogEntry] = {}
        self._by_time: list[tuple[int, int]] = []   # (appended_at_us, id), proposer side

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ordering_id: int) -> bool:
        return ordering_id in self._entries

    def get(self, ordering_id: int) -> Optional[LogEntry]:
        return self._entries.get(ordering_id)

    def append(self, entry: LogEntry) -> bool:
        """Returns True if the entry was new, False for an identical replay."""
        existing = self._entries.get(entry.ordering_id)
        if existing is not None:
            if existing.batch_hash != entry.batch_hash:
                raise DuplicateOrderingId(
                    f"ordering id {entry.ordering_id} already bound to a different batch")
            return False
        self._entries[entry.ordering_id] = entry
        insort(self._by_time, (entry.appended_at_us, entry.ordering_id))
        return True

    def max_id(self) -> int:
        return max(self._entries, default=0)

    def id_range(self, first_id: int, last_id: int) -> Optional[list[LogEntry]]:
        """Entries first_id..last_id inclusive; None if any id is missing."""
        out = []
        for ordering_id in range(first_id, last_id + 1):
            entry = self._entries.get(ordering_id)
            if entry is None:
                return None
            out.append(entry)
        return out

    def window_slice(self, start_us: int, end_us: int) -> list[LogEntry]:
        """Entries appended in [start_us, end_us), in append order."""
        if end_us <= start_us:
            raise WindowError(f"empty or inverted window [{start_us}, {end_us})")
        lo = bisect_left(self._by_time, (start_us, -1))
        hi = bisect_left(self._by_time, (end_us, -1))
        return [self._entries[i] for _, i in self._by_time[lo:hi]]


# -- membership pruning ---------------------------------------------------

@record
class MembershipLink(Wire):
    """Run-length record: entries first_id..last_id share one booth."""

    booth: BoothProfile
    first_id: int
    last_id: int


def prune_memberships(entries: Sequence[LogEntry],
                      booth_lookup: Callable[[bytes], BoothProfile]) -> list[MembershipLink]:
    """Collapse each run of entries ordered in one booth, with consecutive
    ordering ids, into one link, made once the run is known: the booth is
    looked up once per run, in order."""
    runs: list[list[LogEntry]] = []        # each run's first and last entry
    last = None
    for entry in entries:
        if (last is not None and entry.booth_hash == last.booth_hash
                and entry.ordering_id == last.ordering_id + 1):
            run[1] = entry
        else:
            run = [entry, entry]
            runs.append(run)
        last = entry
    return [MembershipLink(booth_lookup(first.booth_hash), first.ordering_id,
                           last.ordering_id) for first, last in runs]


def expand_memberships(links: Sequence[MembershipLink]
                       ) -> dict[int, BoothProfile]:
    """Invert pruning: ordering id -> booth."""
    return {ordering_id: link.booth for link in links
            for ordering_id in range(link.first_id, link.last_id + 1)}


# -- transactions and commit records -------------------------------------

@record
class TxEntry(Wire):
    """Entry as carried inside a committed transaction."""

    ordering_id: int
    batch: DataBatch
    cert: AggregateSignature


def tx_hash_over(window_start_us: int, window_len_us: int,
                 id_hash_pairs: Iterable[tuple[int, bytes]]) -> bytes:
    """`digest("tx", window_start_us, window_len_us, [[i, h], ...])` over
    the window's (ordering id, batch hash) pairs, which `pack_pairs` frames
    and `digest` splices as the same bytes."""
    return digest("tx", window_start_us, window_len_us,
                  Packed(pack_pairs(id_hash_pairs)))


@record
class Transaction(Wire):
    """All entries a consensus window agreed on, memberships pruned."""

    window_start_us: int
    window_len_us: int
    entries: tuple[TxEntry, ...]
    membership_links: tuple[MembershipLink, ...]

    @cached_property
    def tx_hash(self) -> bytes:
        return tx_hash_over(
            self.window_start_us, self.window_len_us,
            [(e.ordering_id, e.batch.batch_hash) for e in self.entries])

    @cached_property
    def packed(self) -> bytes:
        """Canonical bytes of the transaction: packed once, or the slice it
        was decoded from, which the canonical format makes the same bytes."""
        return super().to_field().raw

    def to_field(self) -> Packed:
        return Packed(self.packed)

    @classmethod
    def read_from(cls, r: Reader) -> "Transaction":
        start = r.tell()
        tx = super().read_from(r)
        tx.__dict__["packed"] = r.slice_from(start)
        return tx


@record
class CommitRecord:
    """A window's commit: start, booth, certificate and tx hash."""

    consensus_id: int                  # window start, microseconds
    booth_hash: bytes                  # consensus booth
    cert: AggregateSignature
    tx_hash: bytes
    committed_at_us: int = 0

    def cert_digest(self) -> bytes:
        return commit_cert_digest(self.consensus_id, self.tx_hash, self.booth_hash)


# -- the ledger -----------------------------------------------------------

@dataclass
class CommittedWindow:
    """A committed window in a ledger: its record and transaction."""

    record: CommitRecord
    tx: Transaction


class Ledger:
    """Per-node committed state: data chain plus membership chain."""

    def __init__(self, node_id: int, window_len_us: int):
        self.node_id = node_id
        self.window_len_us = window_len_us
        self._windows: dict[int, CommittedWindow] = {}
        self._order: list[int] = []                   # committed ts, sorted
        self.covered_empty: set[int] = set()          # proposer-side only
        self.booth_table: dict[bytes, BoothProfile] = {}

    def __len__(self) -> int:
        return len(self._order)

    def committed_windows(self) -> list[int]:
        return list(self._order)

    def window(self, ts_us: int) -> Optional[CommittedWindow]:
        return self._windows.get(ts_us)

    def has_window(self, ts_us: int) -> bool:
        return ts_us in self._windows

    def note_booth(self, booth: BoothProfile) -> None:
        self.booth_table.setdefault(booth.booth_hash, booth)

    def append_commit(self, record: CommitRecord, tx: Transaction) -> None:
        ts = record.consensus_id
        if ts in self._windows:
            if self._windows[ts].record.tx_hash != record.tx_hash:
                raise DuplicateOrderingId(
                    f"window {ts} already committed with a different transaction")
            return
        self._windows[ts] = CommittedWindow(record=record, tx=tx)
        insort(self._order, ts)
        for link in tx.membership_links:
            self.booth_table.setdefault(link.booth.booth_hash, link.booth)

    def mark_covered(self, ts_us: int) -> None:
        """Record a window that held no entries and needed no round."""
        if ts_us not in self._windows:
            self.covered_empty.add(ts_us)

    # -- export / import --------------------------------------------------

    def export_jsonl(self, path, identities: Optional[Iterable[Identity]] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.export_lines(identities):
                fh.write(line)
                fh.write("\n")

    def export_lines(self, identities: Optional[Iterable[Identity]] = None) -> list[str]:
        def dump(obj) -> str:
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        lines = [dump({"kind": "meta", "version": 2, "node": self.node_id,
                       "window_len_us": self.window_len_us})]
        for ident in identities or ():
            lines.append(dump({"kind": "identity", **_to_json(ident)}))
        for booth_hash in sorted(self.booth_table):
            lines.append(dump({"kind": "booth",
                               "profile": _to_json(self.booth_table[booth_hash])}))
        for ts in self._order:
            win = self._windows[ts]
            lines.append(dump({"kind": "commit", "record": _to_json(win.record),
                               "tx": _to_json(win.tx)}))
        if self.covered_empty:
            lines.append(dump({"kind": "covered", "ts": sorted(self.covered_empty)}))
        return lines

    @classmethod
    def import_jsonl(cls, path) -> tuple["Ledger", KeyService]:
        registry = KeyService()
        ledger: Optional[Ledger] = None
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                obj = json.loads(raw)
                kind = obj.get("kind")
                if kind == "meta":
                    ledger = cls(obj["node"], obj["window_len_us"])
                elif ledger is None:
                    raise ValueError("ledger export must start with a meta line")
                elif kind == "identity":
                    registry.register(_from_json(Identity, obj))
                elif kind == "booth":
                    ledger.note_booth(_from_json(BoothProfile, obj["profile"]))
                elif kind == "commit":
                    ledger.append_commit(_from_json(CommitRecord, obj["record"]),
                                         _from_json(Transaction, obj["tx"]))
                elif kind == "covered":
                    for ts in obj["ts"]:
                        ledger.mark_covered(ts)
                else:
                    raise ValueError(f"unknown ledger line kind {kind!r}")
        if ledger is None:
            raise ValueError("empty ledger export")
        return ledger, registry


def window_transaction(window_start_us: int, window_len_us: int,
                       entries: Sequence[LogEntry],
                       booth_lookup: Callable[[bytes], BoothProfile]
                       ) -> Transaction:
    """The transaction that commits one window's log entries, given in
    ordering-id order, with their memberships pruned into links."""
    return Transaction(
        window_start_us=window_start_us, window_len_us=window_len_us,
        entries=tuple(TxEntry(e.ordering_id, e.batch, e.cert) for e in entries),
        membership_links=tuple(prune_memberships(entries, booth_lookup)))


# -- chain verification ---------------------------------------------------

def uncertified_entries(tx: Transaction, registry: KeyService, meter=None
                        ) -> Iterator[tuple[TxEntry, RejectReason]]:
    """Each entry of `tx` whose ordering certificate does not count in the
    booth of its membership link, lazily, with the reason: malformed if no
    link covers it, else `BoothProfile.check_certified`'s."""
    memberships = expand_memberships(tx.membership_links)
    for entry in tx.entries:
        booth = memberships.get(entry.ordering_id)
        reason = RejectReason.MALFORMED if booth is None else \
            booth.check_certified(entry.cert, order_cert_digest(
                entry.ordering_id, entry.batch.batch_hash, booth.booth_hash),
                registry, meter)
        if reason is not None:
            yield entry, reason


@dataclass
class ChainCheck:
    """What `verify_chain` found: a verdict, violations and counts."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    windows_checked: int = 0
    entries_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_violation(self) -> Optional[str]:
        return self.violations[0] if self.violations else None


def verify_chain(ledger: Ledger, registry: KeyService, strict: bool = False,
                 horizon_us: Optional[int] = None,
                 retired_ids: Collection[int] = frozenset(),
                 given_up: Collection[int] = frozenset()) -> ChainCheck:
    """Audit a ledger against the identity registry.

    Always checked: commit certificates and per-entry ordering certificates
    against the booth of their membership link, both by
    `BoothProfile.check_certified` (the rule validators apply, which reads
    each certificate's signers from its bitmap), transaction hashes,
    window monotonicity, and non-overlapping increasing ordering-id
    ranges. An entry passes on its certificate alone, so every
    node's ledger is audited by the same rule, whatever path its entries
    took.

    strict adds the proposer/auditor view: ordering ids must be gapless
    starting at 1 across the whole chain, and committed plus covered-empty
    windows must tile [0, horizon_us) on the window grid. The only gaps it
    allows are those the proposer explains: the ids in retired_ids (rounds
    retired on a timeout or a lost booth, and the entries of windows given
    up), and the windows in given_up, which count as covered.
    """
    check = ChainCheck(ok=True)

    def fail(msg: str) -> None:
        check.ok = False
        check.violations.append(msg)

    delta = ledger.window_len_us
    prev_ts = None
    prev_last_id = 0
    expected_next_id = 1
    for ts in ledger.committed_windows():
        win = ledger.window(ts)
        record, tx = win.record, win.tx
        check.windows_checked += 1
        if ts % delta != 0:
            fail(f"window {ts} not aligned to {delta}us grid")
        if prev_ts is not None and ts <= prev_ts:
            fail(f"window order violated at {ts}")
        prev_ts = ts
        if record.consensus_id != tx.window_start_us or tx.window_len_us != delta:
            fail(f"window {ts}: record/tx window mismatch")
        if record.tx_hash != tx.tx_hash:
            fail(f"window {ts}: recorded tx hash differs from transaction")
        booth = ledger.booth_table.get(record.booth_hash)
        if booth is None:
            fail(f"window {ts}: unknown consensus booth")
        else:
            reason = booth.check_certified(record.cert, record.cert_digest(),
                                           registry)
            if reason is not None:
                fail(f"window {ts}: commit certificate rejected: {reason}")
        check.entries_checked += len(tx.entries)
        for entry, reason in uncertified_entries(tx, registry):
            fail(f"entry {entry.ordering_id}: " + (
                "no membership link covers it" if reason is RejectReason.MALFORMED
                else f"ordering certificate rejected: {reason}"))
        ids = [e.ordering_id for e in tx.entries]
        if ids:
            if ids != sorted(ids) or len(set(ids)) != len(ids):
                fail(f"window {ts}: entry ids not strictly increasing")
            if ids[0] <= prev_last_id:
                fail(f"window {ts}: ordering ids overlap an earlier window")
            if strict and _unexplained_gap(expected_next_id, ids[0], retired_ids):
                fail(f"window {ts}: ordering ids skip "
                     f"{expected_next_id}..{ids[0] - 1}")
            if strict and any(b - a != 1 and _unexplained_gap(a + 1, b, retired_ids)
                              for a, b in zip(ids, ids[1:])):
                fail(f"window {ts}: gap inside window entry ids")
            prev_last_id = ids[-1]
            expected_next_id = ids[-1] + 1
    if strict:
        covered = (set(ledger.committed_windows()) | set(ledger.covered_empty)
                   | set(given_up))
        horizon = horizon_us
        if horizon is None:
            horizon = (max(covered) + delta) if covered else 0
        expected = set(range(0, horizon, delta))
        missing = sorted(expected - covered)
        if missing:
            fail(f"coverage gap: windows {missing[:5]}"
                 f"{'...' if len(missing) > 5 else ''} neither committed nor covered")
    return check


def _unexplained_gap(first: int, stop: int, retired_ids: Collection[int]) -> bool:
    """True iff some id in [first, stop) was never retired."""
    return any(oid not in retired_ids for oid in range(first, stop))


# -- json export ----------------------------------------------------------

# fields the export names differently from their dataclass
_JSON_NAMES = {"proposer_id": "proposer", "pivot_id": "pivot",
               "booth_hash": "booth", "first_id": "first", "last_id": "last",
               "membership_links": "links", "sig_bytes": "sig"}


def _to_json(value):
    """The export's rendering of a value: a dataclass as the object of its
    fields, bytes as hex, an enum as its value, a tuple as a list and a
    batch as its [origin_seq, payload hex] pairs."""
    if isinstance(value, DataBatch):
        return [[e.origin_seq, e.payload.hex()] for e in value.entries]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if is_dataclass(value):
        return {_JSON_NAMES.get(f.name, f.name): _to_json(getattr(value, f.name))
                for f in fields(value)}
    return value


def _from_json(tp, obj):
    """The value of annotation `tp` that `_to_json` rendered as `obj`."""
    if tp is DataBatch:
        return DataBatch(DataEntry(seq, bytes.fromhex(payload))
                         for seq, payload in obj)
    if tp is bytes:
        return bytes.fromhex(obj)
    if get_origin(tp) is tuple:
        return tuple(_from_json(get_args(tp)[0], item) for item in obj)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return tp(**{f.name: _from_json(hints[f.name],
                                        obj[_JSON_NAMES.get(f.name, f.name)])
                     for f in fields(tp)})
    if issubclass(tp, Enum):
        return tp(obj)
    return obj
