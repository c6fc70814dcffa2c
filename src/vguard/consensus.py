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

Commit rounds run ordering's round lifecycle (`RoundCoordinator`), keyed
by window timestamp. A window that cannot gather its quorum is retried in
the head booth under the same timestamp; after a timeout, members who
failed to reply are demoted to the full-payload path, so a member that
missed entries (drops, late arrival) can still countersign on retry; a
lost booth demotes no one. The window timestamp binds each member to a
single transaction hash, which is what makes the timestamp a safe dedup
key across retries. An empty window settles with no round, as covered; a
window given up settles as skipped, so it holds back no later window.

Commits release in window order on the proposer, so its ledger tiles the
timeline. A validator holds the transaction it countersigned (on the
hash-only path, built from its own log) and appends that one if the
window's commit reaches it, so a validator's ledger may hold gaps.
Validators accept a commit through `booth_certified`, as they do an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .booths import BoothProfile
from .crypto import PartialSignature, make_partial
from .errors import RejectReason
from .ledger import (CommitRecord, Transaction, commit_cert_digest,
                     expand_memberships, uncertified_entries,
                     window_transaction)
from .messages import (CommitMsg, CommitReply, PreCommitSeen, PreCommitUnseen)
from .ordering import (QuorumRound, RoundCoordinator, booth_admitted,
                       booth_certified, proposer_signed)


@dataclass(slots=True)
class ConsensusRound(QuorumRound):
    """A commit round over one window's transaction."""

    tx: Transaction
    demoted: frozenset[int] = frozenset()


class ConsensusCoordinator(RoundCoordinator):
    """Proposer side: slices the log into windows and drives commit rounds."""

    def __init__(self, ctx):
        super().__init__(ctx, first_key=0, step=ctx.delta_us)
        self.next_window_us = 0

    # the first window not yet committed or covered
    release_next_us = property(lambda self: self.release_next)

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
            self._settle(ts, None)
            return
        entries = sorted(entries, key=lambda e: e.ordering_id)
        tx = window_transaction(ts, delta, entries,
                                ctx.ledger.booth_table.__getitem__)
        self._open(ts, ConsensusRound(tx=tx))

    def _digest(self, ts: int, rnd: ConsensusRound) -> bytes:
        return commit_cert_digest(ts, rnd.tx.tx_hash, rnd.booth.booth_hash)

    def _propose(self, ts: int, rnd: ConsensusRound,
                 own: PartialSignature) -> float:
        ctx, tx, booth, demoted = self.ctx, rnd.tx, rnd.booth, rnd.demoted
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
            ctx.send(v, msg)

        return (0 if unseen_msg is None
                else len(tx.entries) * ctx.config.unseen_allowance_ms)

    # -- replies and release ----------------------------------------------

    def handle_reply(self, src: int, msg: CommitReply) -> None:
        self._take_reply(src, msg.window_start_us, msg.partial)

    def _release(self, ts: int, rnd: Optional[ConsensusRound]) -> None:
        """Commit a certified window and send it to the booth and gossip;
        an empty window is recorded as covered, a given-up one not at all."""
        ctx = self.ctx
        if rnd is None:
            if ts not in self.retired_ids:
                ctx.ledger.mark_covered(ts)
            return
        tx, booth = rnd.tx, rnd.booth
        record = CommitRecord(
            consensus_id=ts, booth_hash=booth.booth_hash, cert=rnd.cert,
            tx_hash=tx.tx_hash, committed_at_us=rnd.certified_at_us)
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
            ctx.send(v, commit)
        if ctx.gossip is not None:
            ctx.gossip.init_gossip(commit, tx,
                                   exclude=set(booth.member_ids))

    # -- retries -----------------------------------------------------------

    def _again(self, ts: int, rnd: ConsensusRound, timed_out: bool) -> None:
        demoted = rnd.demoted
        if timed_out:            # a lost booth is not its members' fault
            demoted |= set(rnd.booth.validators()) - set(rnd.replies)
        self._open(ts, ConsensusRound(tx=rnd.tx, attempt=rnd.attempt + 1,
                                      demoted=demoted))

    def _give_up(self, ts: int, rnd: ConsensusRound) -> None:
        self.ctx.count("stalled_windows")
        self.ctx.diag(RejectReason.EXPIRED)
        self._retire(ts)


# -- validator side -------------------------------------------------------

@dataclass(slots=True)
class PendingCommit:
    """The transaction a validator countersigned for a window, and the
    booth it was asked in: the window's commit appends this transaction."""

    booth: BoothProfile
    tx: Transaction


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

    def _bind_and_reply(self, src: int, msg, pc: PendingCommit) -> None:
        ctx = self.ctx
        ts = msg.window_start_us
        booth, tx_hash = pc.booth, pc.tx.tx_hash
        bound = self.pending.get(ts)
        if bound is not None and bound.tx.tx_hash != tx_hash:
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
        ctx.send(src, reply)

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
        tx = window_transaction(msg.window_start_us, msg.window_len_us,
                                entries, ctx.ledger.booth_table.__getitem__)
        if tx.tx_hash != msg.tx_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return
        self._bind_and_reply(src, msg, PendingCommit(booth, tx))

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
        self._bind_and_reply(src, msg, PendingCommit(booth, tx))

    def _verify_foreign_entries(self, tx: Transaction) -> bool:
        """Full recheck of entries ordered in booths this node never sat in:
        each entry's ordering certificate against its membership link.
        Certified entries are adopted into the log."""
        ctx = self.ctx
        for _, reason in uncertified_entries(tx, ctx.registry, ctx.env.meter):
            ctx.diag(reason)
            return False
        memberships = expand_memberships(tx.membership_links)
        for entry in tx.entries:
            ctx.log_certified(entry.ordering_id, entry.batch,
                              memberships[entry.ordering_id], entry.cert)
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
        booth, tx = pc.booth, pc.tx
        if msg.tx_hash != tx.tx_hash:
            ctx.diag(RejectReason.REUSED_WINDOW)
            return
        if msg.booth_hash != booth.booth_hash:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        expected = commit_cert_digest(ts, msg.tx_hash, booth.booth_hash)
        if not booth_certified(ctx, src, msg, booth, expected):
            return
        record = CommitRecord(
            consensus_id=ts, booth_hash=msg.booth_hash, cert=msg.cert, tx_hash=msg.tx_hash,
            committed_at_us=ctx.env.now_us())
        ctx.ledger.note_booth(booth)
        ctx.ledger.append_commit(record, tx)
        # gossip receivers ack the pivot, which takes acks only for the
        # commits it knows
        if (ctx.gossip is not None and tx.membership_links
                and tx.membership_links[0].booth.pivot_id == ctx.node_id):
            ctx.gossip.expect_acks(msg.commit_hash())
