"""Windowed consensus shuttled across whatever booth is currently best.

The proposer's clock cuts its total order log into fixed windows. Each
non-empty window becomes one transaction: the entry list plus pruned
membership links. The proposer then runs a commit round in the head booth
of the moment, which need not be any booth the window's entries were
ordered in. Members who sat in every ordering booth of the window already
hold the entries, so they get a hash-only request; everyone else gets the
full transaction and checks each entry's ordering certificate against the
booth of its membership link (a run of entries ordered in one booth) with
`BoothProfile.check_certified` before countersigning. The certificate is
all the evidence an entry needs: its bitmap names 2f signers, validators
of the entry's booth, never its proposer, the pivot among them, and each
signed only after checking the proposer's own signature.

A window that cannot gather its quorum is retried under a fresh booth with
the same window timestamp, and members who failed to reply are demoted to
the full-payload path; a member that missed entries (drops, late arrival)
can therefore still countersign on retry. The window timestamp binds each
member to a single transaction hash, which is what makes the timestamp a
safe dedup key across retries.

Each commit round is a `QuorumRound`, the collector ordering uses too, and
validators accept its certificate through `BoothProfile.check_certified`.

Commits release in window order on the proposer, so its ledger tiles the
timeline; validators append whatever commits reach them and may hold gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .booths import BoothProfile
from .crypto import make_partial
from .errors import RejectReason
from .ledger import (CommitRecord, LogEntry, Transaction, commit_cert_digest,
                     expand_memberships, order_cert_digest, tx_hash_over,
                     window_transaction)
from .messages import (CommitMsg, CommitReply, PreCommitSeen, PreCommitUnseen)
from .netsim import Category
from .ordering import (QuorumRound, booth_admitted, proposer_signed,
                       round_timeout_ms)
from .storage import PROPOSER, VALIDATOR


@dataclass
class ConsensusRound(QuorumRound):
    window_start_us: int
    tx: Transaction
    attempt: int
    demoted: frozenset[int]


class ConsensusCoordinator:
    """Proposer side: slices the log into windows and drives commit rounds."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rounds: dict[int, ConsensusRound] = {}
        # window ts -> (record, tx, booth), or None for an empty
        # window; drained in ts order by _release
        self.ready: dict[int, Optional[tuple]] = {}
        self.parked: dict[int, tuple[Transaction, int, frozenset[int]]] = {}
        self.next_window_us = 0
        self.release_next_us = 0
        ctx.mmu.on_booth_invalidated(self._booth_lost)
        ctx.mmu.on_booth_available(self._unpark)

    def start(self) -> None:
        self.ctx.env.every(self.ctx.delta_us / 1000.0, self._tick)

    # -- window opening ----------------------------------------------------

    def _tick(self) -> None:
        delta = self.ctx.delta_us
        now = self.ctx.env.now_us()
        while self.next_window_us + delta <= now:
            self._open_window(self.next_window_us)
            self.next_window_us += delta

    def _open_window(self, ts: int) -> None:
        ctx = self.ctx
        delta = ctx.delta_us
        entries = ctx.log.window_slice(ts, ts + delta)
        if not entries:
            self.ready[ts] = None
            self._release()
            return
        entries = sorted(entries, key=lambda e: e.ordering_id)
        tx = window_transaction(ts, delta, entries,
                                ctx.ledger.booth_table.__getitem__)
        self._attempt(ts, tx, attempt=0, demoted=frozenset())

    def _attempt(self, ts: int, tx: Transaction, attempt: int,
                 demoted: frozenset[int]) -> None:
        ctx = self.ctx
        booth = ctx.mmu.current_booth()
        if booth is None:
            self.parked[ts] = (tx, attempt, demoted)
            return
        payload = commit_cert_digest(ts, tx.tx_hash, booth.booth_hash)
        ctx.env.meter.sign(1)
        own = make_partial(ctx.key, payload)
        rnd = ConsensusRound(window_start_us=ts, tx=tx, booth=booth,
                             attempt=attempt, demoted=demoted,
                             cert_digest=payload)
        self.rounds[ts] = rnd

        first = tx.entries[0].ordering_id
        last = tx.entries[-1].ordering_id
        contiguous = (last - first + 1) == len(tx.entries)
        member_sets = [set(link.booth.member_ids) for link in tx.membership_links]
        # one message object per variant, so each is encoded once
        seen_msg = unseen_msg = None
        for v in booth.validators():
            seen = (contiguous and v not in demoted
                    and all(v in ms for ms in member_sets))
            if seen:
                if seen_msg is None:
                    seen_msg = PreCommitSeen(
                        instance_id=ctx.instance_id, sender=ctx.node_id,
                        window_start_us=ts, window_len_us=tx.window_len_us,
                        tx_hash=tx.tx_hash, first_id=first, last_id=last,
                        booth=booth, booth_hash=booth.booth_hash,
                        proposer_partial=own)
                msg = seen_msg
            else:
                if unseen_msg is None:
                    unseen_msg = PreCommitUnseen(
                        instance_id=ctx.instance_id, sender=ctx.node_id,
                        window_start_us=ts, window_len_us=tx.window_len_us,
                        tx_hash=tx.tx_hash, tx=tx, booth=booth,
                        booth_hash=booth.booth_hash, proposer_partial=own)
                msg = unseen_msg
            ctx.send(v, msg, Category.CONSENSUS, ts)

        timeout = round_timeout_ms(ctx, booth)
        if unseen_msg is not None:
            timeout += len(tx.entries) * ctx.config.unseen_allowance_ms
        rnd.timer = ctx.env.after(timeout, lambda: self._timed_out(ts, attempt))

    # -- replies and release ----------------------------------------------

    def handle_reply(self, src: int, msg: CommitReply) -> None:
        ctx = self.ctx
        rnd = self.rounds.get(msg.window_start_us)
        if rnd is None:
            ts = msg.window_start_us
            if ts in self.ready or ts < self.release_next_us:
                ctx.env.drops[ctx.node_id, "late_reply"] += 1
            else:
                ctx.diag(RejectReason.STALE)
            return
        if not rnd.add_reply(ctx, src, msg.partial):
            return
        record = CommitRecord(
            consensus_id=rnd.window_start_us,
            booth_hash=rnd.booth.booth_hash, cert=rnd.certify(ctx),
            tx_hash=rnd.tx.tx_hash, committed_at_us=ctx.env.now_us())
        self.ready[rnd.window_start_us] = (record, rnd.tx, rnd.booth)
        del self.rounds[rnd.window_start_us]
        self._release()

    def _release(self) -> None:
        ctx = self.ctx
        delta = ctx.delta_us
        while self.release_next_us in self.ready:
            item = self.ready.pop(self.release_next_us)
            ts = self.release_next_us
            self.release_next_us += delta
            if item is None:
                ctx.ledger.mark_covered(ts)
                continue
            record, tx, booth = item
            ctx.ledger.note_booth(booth)
            ctx.ledger.append_commit(record, tx)
            ctx.metrics.committed(tx, ctx.env.now_us())
            ctx.count("committed_windows")
            ctx.count("committed_batches", len(tx.entries))
            ctx.count("committed_entries",
                      sum(len(entry.batch) for entry in tx.entries))
            commit = CommitMsg(
                instance_id=ctx.instance_id, sender=ctx.node_id,
                window_start_us=ts, booth_hash=record.booth_hash, cert=record.cert,
                tx_hash=record.tx_hash)
            for v in booth.validators():
                ctx.send(v, commit, Category.CONSENSUS, ts)
            if ctx.storage is not None:
                smi = ctx.storage.get(ctx.instance_id, PROPOSER)
                smi.register_to_temp(tx, record, ctx.env.now_us())
            if ctx.gossip is not None:
                ctx.gossip.init_gossip(commit, tx,
                                       exclude=set(booth.member_ids))

    # -- retries -----------------------------------------------------------

    def _timed_out(self, ts: int, attempt: int) -> None:
        rnd = self.rounds.get(ts)
        if rnd is None or rnd.attempt != attempt:
            return
        del self.rounds[ts]
        silent = {v for v in rnd.booth.validators()} - set(rnd.replies)
        demoted = rnd.demoted | silent
        if attempt + 1 > self.ctx.config.max_retries:
            self.ctx.count("stalled_windows")
            self.ctx.diag(RejectReason.EXPIRED)
            return
        self._attempt(ts, rnd.tx, attempt + 1, frozenset(demoted))

    def _booth_lost(self, booth_hash: bytes) -> None:
        hit = [ts for ts, r in self.rounds.items()
               if r.booth.booth_hash == booth_hash]
        for ts in hit:
            rnd = self.rounds.pop(ts)
            if rnd.timer is not None:
                rnd.timer.cancel()
            # not the members' fault: no demotion on booth loss
            self._attempt(ts, rnd.tx, rnd.attempt + 1, rnd.demoted)

    def _unpark(self) -> None:
        for ts in sorted(self.parked):
            if self.ctx.mmu.current_booth() is None:
                return
            tx, attempt, demoted = self.parked.pop(ts)
            self._attempt(ts, tx, attempt, demoted)


# -- validator side -------------------------------------------------------

@dataclass
class PendingCommit:
    booth: BoothProfile
    tx_hash: bytes
    tx: Optional[Transaction]            # full tx on the unseen path
    first_id: int = 0
    last_id: int = 0


class ValidatorConsensus:
    def __init__(self, ctx):
        self.ctx = ctx
        self.pending: dict[int, PendingCommit] = {}   # window ts -> bound tx

    # shared screening for both pre-commit variants; returns booth or None
    def _screen(self, src: int, msg) -> Optional[BoothProfile]:
        ctx = self.ctx
        booth = msg.booth
        ctx.env.meter.hash_bytes(64 * booth.size)
        if not booth_admitted(ctx, src, msg):
            return None
        delta = ctx.delta_us
        if msg.window_len_us != delta or msg.window_start_us % delta != 0:
            ctx.diag(RejectReason.MALFORMED)
            return None
        return booth

    def _bind_and_reply(self, src: int, msg, booth: BoothProfile,
                        tx_hash: bytes, pc: PendingCommit) -> None:
        ctx = self.ctx
        ts = msg.window_start_us
        bound = self.pending.get(ts)
        if bound is not None and bound.tx_hash != tx_hash:
            ctx.diag(RejectReason.REUSED_WINDOW)
            return
        expected = commit_cert_digest(ts, tx_hash, booth.booth_hash)
        if not proposer_signed(ctx, booth, msg.proposer_partial, expected):
            return
        self.pending[ts] = pc
        ctx.env.meter.sign(1)
        reply = CommitReply(instance_id=ctx.instance_id, sender=ctx.node_id,
                            window_start_us=ts,
                            partial=make_partial(ctx.key, expected))
        ctx.send(src, reply, Category.CONSENSUS, ts)

    def handle_seen(self, src: int, msg: PreCommitSeen) -> None:
        ctx = self.ctx
        booth = self._screen(src, msg)
        if booth is None:
            return
        entries = ctx.log.id_range(msg.first_id, msg.last_id)
        if entries is None:
            ctx.diag(RejectReason.UNKNOWN_INSTANCE)
            return
        ctx.env.meter.hash_bytes(48 * len(entries))
        local_hash = tx_hash_over(
            msg.window_start_us, msg.window_len_us,
            [(e.ordering_id, e.batch.batch_hash) for e in entries])
        if local_hash != msg.tx_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        pc = PendingCommit(booth=booth, tx_hash=local_hash, tx=None,
                           first_id=msg.first_id, last_id=msg.last_id)
        self._bind_and_reply(src, msg, booth, local_hash, pc)

    def handle_unseen(self, src: int, msg: PreCommitUnseen) -> None:
        ctx = self.ctx
        booth = self._screen(src, msg)
        if booth is None:
            return
        tx = msg.tx
        if (tx.window_start_us != msg.window_start_us
                or tx.window_len_us != msg.window_len_us or not tx.entries):
            ctx.diag(RejectReason.MALFORMED)
            return
        ctx.env.meter.hash_bytes(48 * len(tx.entries))
        if tx.tx_hash != msg.tx_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        if not self._verify_foreign_entries(tx):
            return
        pc = PendingCommit(booth=booth, tx_hash=tx.tx_hash, tx=tx)
        self._bind_and_reply(src, msg, booth, tx.tx_hash, pc)

    def _verify_foreign_entries(self, tx: Transaction) -> bool:
        """Full recheck of entries ordered in booths this node never sat in:
        each entry's ordering certificate against its membership link."""
        ctx = self.ctx
        memberships = expand_memberships(tx.membership_links)
        for entry in tx.entries:
            link_booth = memberships.get(entry.ordering_id)
            if link_booth is None:
                ctx.diag(RejectReason.MALFORMED)
                return False
            cert_digest = order_cert_digest(
                entry.ordering_id, entry.batch.batch_hash,
                link_booth.booth_hash)
            reason = link_booth.check_certified(entry.cert, cert_digest,
                                                ctx.registry, ctx.env.meter)
            if reason is not None:
                ctx.diag(reason)
                return False
        # adopt: these entries are certified, make them local
        for entry in tx.entries:
            link_booth = memberships[entry.ordering_id]
            ctx.log.append(LogEntry(
                ordering_id=entry.ordering_id, batch=entry.batch,
                booth_hash=link_booth.booth_hash, cert=entry.cert,
                appended_at_us=ctx.env.now_us()))
            ctx.ledger.note_booth(link_booth)
        return True

    def handle_commit(self, src: int, msg: CommitMsg) -> None:
        ctx = self.ctx
        ts = msg.window_start_us
        pc = self.pending.get(ts)
        if pc is None:
            if ctx.ledger.has_window(ts):
                ctx.diag(RejectReason.DUPLICATE)
            else:
                ctx.diag(RejectReason.UNKNOWN_COMMIT)
            return
        if msg.tx_hash != pc.tx_hash:
            ctx.diag(RejectReason.REUSED_WINDOW)
            return
        booth = pc.booth
        if msg.booth_hash != booth.booth_hash:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        if src != booth.proposer_id or msg.sender != booth.proposer_id:
            ctx.diag(RejectReason.MALFORMED)
            return
        expected = commit_cert_digest(ts, msg.tx_hash, booth.booth_hash)
        reason = booth.check_certified(msg.cert, expected, ctx.registry,
                                       ctx.env.meter)
        if reason is not None:
            ctx.diag(reason)
            return

        tx = pc.tx
        if tx is None:
            entries = ctx.log.id_range(pc.first_id, pc.last_id)
            if entries is None:
                ctx.diag(RejectReason.UNKNOWN_INSTANCE)
                return
            tx = window_transaction(ts, ctx.delta_us, entries,
                                    ctx.ledger.booth_table.__getitem__)
        record = CommitRecord(
            consensus_id=ts, booth_hash=msg.booth_hash, cert=msg.cert, tx_hash=msg.tx_hash,
            committed_at_us=ctx.env.now_us())
        ctx.ledger.note_booth(booth)
        ctx.ledger.append_commit(record, tx)
        if ctx.storage is not None:
            smi = ctx.storage.get(ctx.instance_id, VALIDATOR)
            smi.register_to_temp(tx, record, ctx.env.now_us())
        if ctx.committed_hook is not None:
            ctx.committed_hook(msg, tx)
