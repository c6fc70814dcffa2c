"""Windowed consensus shuttled across whatever booth is currently best.

The proposer's clock cuts its total order log into fixed windows. Each
non-empty window becomes one transaction: the entry list plus pruned
membership links. The proposer then runs a commit round in the head booth
of the moment, which need not be any booth the window's entries were
ordered in. Members who sat in every ordering booth of the window already
hold the entries, so they get a hash-only request; everyone else gets the
full transaction with the retained reply sets and re-verifies each entry
from scratch before countersigning.

A window that cannot gather its quorum is retried under a fresh booth with
the same window timestamp, and members who failed to reply are demoted to
the full-payload path; a member that missed entries (drops, late arrival)
can therefore still countersign on retry. The window timestamp binds each
member to a single transaction hash, which is what makes the timestamp a
safe dedup key across retries.

Commits release in window order on the proposer, so its ledger tiles the
timeline; validators append whatever commits reach them and may hold gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .booths import BoothProfile
from .crypto import (PartialSignature, aggregate, make_partial,
                     verify_aggregate, verify_partial, verify_partial_set)
from .errors import RejectReason
from .ledger import (CommitRecord, LogEntry, Transaction, TxEntry,
                     commit_cert_digest, expand_memberships, order_cert_digest,
                     prune_memberships, tx_hash_over)
from .messages import (CommitMsg, CommitReply, PreCommitSeen, PreCommitUnseen)
from .netsim import Category


@dataclass
class ConsensusRound:
    window_start_us: int
    tx: Transaction
    booth: BoothProfile
    attempt: int
    own_partial: PartialSignature
    demoted: frozenset[int]
    replies: dict[int, PartialSignature] = field(default_factory=dict)
    timer: Optional[object] = None
    done: bool = False


class ConsensusCoordinator:
    """Proposer side: slices the log into windows and drives commit rounds."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rounds: dict[int, ConsensusRound] = {}
        # window ts -> (record, tx, reply_sets, booth), or None for an empty
        # window; drained in ts order by _release
        self.ready: dict[int, Optional[tuple]] = {}
        self.parked: dict[int, tuple[Transaction, int, frozenset[int]]] = {}
        self.next_window_us = 0
        self.release_next_us = 0
        self.stalled_windows: list[int] = []
        ctx.mmu.on_booth_invalidated(self._booth_lost)
        ctx.mmu.on_booth_available(self._unpark)
        self._timer = None

    def start(self) -> None:
        delta_ms = self.ctx.config.delta_us / 1000.0
        self._timer = self.ctx.env.every(delta_ms, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()

    # -- window opening ----------------------------------------------------

    def _tick(self) -> None:
        delta = self.ctx.config.delta_us
        now = self.ctx.env.now_us()
        while self.next_window_us + delta <= now:
            self._open_window(self.next_window_us)
            self.next_window_us += delta

    def _open_window(self, ts: int) -> None:
        ctx = self.ctx
        delta = ctx.config.delta_us
        entries = ctx.log.window_slice(ts, ts + delta)
        if not entries:
            self.ready[ts] = None
            self._release()
            return
        entries = sorted(entries, key=lambda e: e.ordering_id)
        links = prune_memberships(entries, self._booth_of)
        tx = Transaction(
            window_start_us=ts, window_len_us=delta,
            entries=tuple(TxEntry(e.ordering_id, e.batch, e.cert)
                          for e in entries),
            membership_links=tuple(links))
        self._attempt(ts, tx, attempt=0, demoted=frozenset())

    def _booth_of(self, booth_hash: bytes) -> BoothProfile:
        return self.ctx.booth_profiles[booth_hash]

    def _attempt(self, ts: int, tx: Transaction, attempt: int,
                 demoted: frozenset[int]) -> None:
        ctx = self.ctx
        booth = ctx.mmu.current_booth("consensus")
        if booth is None:
            self.parked[ts] = (tx, attempt, demoted)
            return
        payload = commit_cert_digest(ts, tx.tx_hash, booth.booth_hash)
        share = ctx.registry.booth_share(booth.booth_hash, ctx.node_id)
        ctx.env.meter.sign(2)
        own = make_partial(ctx.key, payload, share)
        rnd = ConsensusRound(window_start_us=ts, tx=tx, booth=booth,
                             attempt=attempt, own_partial=own, demoted=demoted)
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
                    reply_sets = tuple(
                        (e.ordering_id, ctx.log.get(e.ordering_id).reply_set)
                        for e in tx.entries)
                    unseen_msg = PreCommitUnseen(
                        instance_id=ctx.instance_id, sender=ctx.node_id,
                        window_start_us=ts, window_len_us=tx.window_len_us,
                        tx_hash=tx.tx_hash, tx=tx, booth=booth,
                        booth_hash=booth.booth_hash, reply_sets=reply_sets,
                        proposer_partial=own)
                msg = unseen_msg
            ctx.send(v, msg, Category.CONSENSUS, ts)

        timeout = self._timeout_ms(booth)
        if unseen_msg is not None:
            timeout += len(tx.entries) * ctx.config.unseen_allowance_ms
        rnd.timer = ctx.env.after(timeout, lambda: self._timed_out(ts, attempt))

    def _timeout_ms(self, booth: BoothProfile) -> float:
        cfg = self.ctx.config
        rtt = self.ctx.mmu.booth_latency(booth.booth_hash)
        return max(cfg.timeout_factor * rtt, cfg.timeout_floor_ms)

    # -- replies and release ----------------------------------------------

    def handle_reply(self, src: int, msg: CommitReply) -> None:
        ctx = self.ctx
        rnd = self.rounds.get(msg.window_start_us)
        if rnd is None or rnd.done:
            ts = msg.window_start_us
            if ts in self.ready or ts < self.release_next_us:
                ctx.counters["late_reply"] += 1
            else:
                ctx.diag(RejectReason.STALE)
            return
        if src == ctx.node_id or src not in rnd.booth:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        expected = commit_cert_digest(rnd.window_start_us, rnd.tx.tx_hash,
                                      rnd.booth.booth_hash)
        p = msg.partial
        if p.signer != src:
            ctx.diag(RejectReason.BAD_SIG)
            return
        if p.payload_digest != expected:
            ctx.diag(RejectReason.WRONG_DIGEST)
            return
        ctx.env.meter.verify(1)
        if not verify_partial(p, ctx.registry.verify_key(src), expected):
            ctx.diag(RejectReason.BAD_SIG)
            return
        rnd.replies.setdefault(src, p)
        need = 2 * rnd.booth.fault_budget
        if len(rnd.replies) >= need and rnd.booth.pivot_id in rnd.replies:
            self._finalize(rnd)

    def _finalize(self, rnd: ConsensusRound) -> None:
        ctx = self.ctx
        rnd.done = True
        if rnd.timer is not None:
            rnd.timer.cancel()
        need = 2 * rnd.booth.fault_budget
        quorum_ids = [rnd.booth.pivot_id]
        for signer in rnd.replies:
            if signer != rnd.booth.pivot_id:
                quorum_ids.append(signer)
            if len(quorum_ids) == need:
                break
        quorum = tuple(sorted(quorum_ids))
        parts = [rnd.replies[s] for s in quorum]
        ctx.env.meter.verify(len(parts))
        cert = aggregate(parts, ctx.registry.material(rnd.booth.booth_hash))
        record = CommitRecord(
            consensus_id=rnd.window_start_us, quorum=quorum,
            booth_hash=rnd.booth.booth_hash, cert=cert,
            tx_hash=rnd.tx.tx_hash, committed_at_us=ctx.env.now_us())
        reply_sets = {
            e.ordering_id: ctx.log.get(e.ordering_id).reply_set
            for e in rnd.tx.entries}
        self.ready[rnd.window_start_us] = (record, rnd.tx, reply_sets, rnd.booth)
        del self.rounds[rnd.window_start_us]
        self._release()

    def _release(self) -> None:
        ctx = self.ctx
        delta = ctx.config.delta_us
        while self.release_next_us in self.ready:
            item = self.ready.pop(self.release_next_us)
            ts = self.release_next_us
            self.release_next_us += delta
            if item is None:
                ctx.ledger.mark_covered(ts)
                continue
            record, tx, reply_sets, booth = item
            ctx.ledger.note_booth(booth)
            ctx.ledger.append_commit(record, tx, reply_sets)
            ctx.metrics.committed(tx, ctx.env.now_us())
            commit = CommitMsg(
                instance_id=ctx.instance_id, sender=ctx.node_id,
                window_start_us=ts, quorum=record.quorum,
                booth_hash=record.booth_hash, cert=record.cert,
                tx_hash=record.tx_hash)
            for v in booth.validators():
                ctx.send(v, commit, Category.CONSENSUS, ts)
            if ctx.storage is not None:
                from .storage import PROPOSER
                smi = ctx.storage.get(ctx.instance_id, PROPOSER)
                smi.register_to_temp(tx, record, ctx.env.now_us())
            if ctx.gossip is not None:
                ctx.gossip.init_gossip(commit, tx,
                                       exclude=set(booth.member_ids))

    # -- retries -----------------------------------------------------------

    def _timed_out(self, ts: int, attempt: int) -> None:
        rnd = self.rounds.get(ts)
        if rnd is None or rnd.done or rnd.attempt != attempt:
            return
        del self.rounds[ts]
        silent = {v for v in rnd.booth.validators()} - set(rnd.replies)
        demoted = rnd.demoted | silent
        if attempt + 1 > self.ctx.config.max_retries:
            self.stalled_windows.append(ts)
            self.ctx.diag(RejectReason.EXPIRED)
            return
        self._attempt(ts, rnd.tx, attempt + 1, frozenset(demoted))

    def _booth_lost(self, booth_hash: bytes) -> None:
        hit = [ts for ts, r in self.rounds.items()
               if r.booth.booth_hash == booth_hash and not r.done]
        for ts in hit:
            rnd = self.rounds.pop(ts)
            if rnd.timer is not None:
                rnd.timer.cancel()
            # not the members' fault: no demotion on booth loss
            self._attempt(ts, rnd.tx, rnd.attempt + 1, rnd.demoted)

    def _unpark(self) -> None:
        for ts in sorted(self.parked):
            if self.ctx.mmu.current_booth("consensus") is None:
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
    reply_sets: dict = field(default_factory=dict)


class ValidatorConsensus:
    def __init__(self, ctx):
        self.ctx = ctx
        self.binding: dict[int, bytes] = {}      # window ts -> tx hash
        self.pending: dict[int, PendingCommit] = {}

    # shared screening for both pre-commit variants; returns booth or None
    def _screen(self, src: int, msg) -> Optional[BoothProfile]:
        ctx = self.ctx
        booth = msg.booth
        ctx.env.meter.hash_bytes(64 * booth.size)
        if booth.booth_hash != msg.booth_hash:
            ctx.diag(RejectReason.BAD_HASH)
            return None
        if src != booth.proposer_id or msg.sender != booth.proposer_id:
            ctx.diag(RejectReason.MALFORMED)
            return None
        if ctx.node_id not in booth:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return None
        delta = ctx.config.delta_us
        if msg.window_len_us != delta or msg.window_start_us % delta != 0:
            ctx.diag(RejectReason.MALFORMED)
            return None
        return booth

    def _bind_and_reply(self, src: int, msg, booth: BoothProfile,
                        tx_hash: bytes, pc: PendingCommit) -> None:
        ctx = self.ctx
        ts = msg.window_start_us
        bound = self.binding.get(ts)
        if bound is not None and bound != tx_hash:
            ctx.diag(RejectReason.REUSED_WINDOW)
            return
        expected = commit_cert_digest(ts, tx_hash, booth.booth_hash)
        p = msg.proposer_partial
        ctx.env.meter.verify(1)
        if (p.signer != booth.proposer_id or p.payload_digest != expected
                or not verify_partial(p, ctx.registry.verify_key(p.signer),
                                      expected)):
            ctx.diag(RejectReason.BAD_SIG)
            return
        share = ctx.registry.booth_share(booth.booth_hash, ctx.node_id)
        if share is None:
            ctx.diag(RejectReason.NO_SHARE)
            return
        self.binding[ts] = tx_hash
        self.pending[ts] = pc
        ctx.env.meter.sign(2)
        reply = CommitReply(instance_id=ctx.instance_id, sender=ctx.node_id,
                            window_start_us=ts,
                            partial=make_partial(ctx.key, expected, share))
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
        if not self._verify_foreign_entries(tx, dict(msg.reply_sets)):
            return
        pc = PendingCommit(booth=booth, tx_hash=tx.tx_hash, tx=tx,
                           reply_sets={i: tuple(parts)
                                       for i, parts in msg.reply_sets})
        self._bind_and_reply(src, msg, booth, tx.tx_hash, pc)

    def _verify_foreign_entries(self, tx: Transaction, reply_sets: dict) -> bool:
        """Full recheck of entries ordered in booths this node never sat in:
        certificate, quorum shape, pivot, and the retained reply set."""
        ctx = self.ctx
        memberships = expand_memberships(tx.membership_links)
        for entry in tx.entries:
            got = memberships.get(entry.ordering_id)
            if got is None:
                ctx.diag(RejectReason.MALFORMED)
                return False
            link_booth, quorum = got
            need = 2 * link_booth.fault_budget
            qset = set(quorum)
            if len(qset) != need or len(quorum) != need:
                ctx.diag(RejectReason.QUORUM_MISMATCH)
                return False
            if not qset <= set(link_booth.member_ids):
                ctx.diag(RejectReason.FOREIGN_QUORUM_MEMBER)
                return False
            if link_booth.pivot_id not in qset:
                ctx.diag(RejectReason.PIVOT_MISSING)
                return False
            cert_digest = order_cert_digest(
                entry.ordering_id, entry.batch.batch_hash,
                link_booth.booth_hash)
            ctx.env.meter.verify(link_booth.threshold)
            if not verify_aggregate(entry.cert, cert_digest,
                                    link_booth.directory_map,
                                    link_booth.threshold):
                ctx.diag(RejectReason.BAD_CERT)
                return False
            if set(entry.cert.signers(link_booth.member_ids)) != qset:
                ctx.diag(RejectReason.QUORUM_MISMATCH)
                return False
            replies = reply_sets.get(entry.ordering_id)
            if not replies:
                ctx.diag(RejectReason.INSUFFICIENT_REPLIES)
                return False
            allowed = qset | {link_booth.proposer_id}
            usable = tuple(p for p in replies if p.signer in allowed)
            ctx.env.meter.verify(len(usable))
            if not verify_partial_set(usable, cert_digest, need + 1,
                                      ctx.registry):
                ctx.diag(RejectReason.INSUFFICIENT_REPLIES)
                return False
        # adopt: these entries are certified, make them local
        for entry in tx.entries:
            link_booth, quorum = memberships[entry.ordering_id]
            ctx.log.append(LogEntry(
                ordering_id=entry.ordering_id, batch=entry.batch,
                quorum=tuple(sorted(quorum)),
                booth_hash=link_booth.booth_hash, cert=entry.cert,
                appended_at_us=ctx.env.now_us(),
                reply_set=tuple(reply_sets.get(entry.ordering_id, ()))))
            ctx.booth_profiles.setdefault(link_booth.booth_hash, link_booth)
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
        if msg.tx_hash != pc.tx_hash or self.binding.get(ts) != msg.tx_hash:
            ctx.diag(RejectReason.REUSED_WINDOW)
            return
        booth = pc.booth
        if msg.booth_hash != booth.booth_hash:
            ctx.diag(RejectReason.UNKNOWN_BOOTH)
            return
        if src != booth.proposer_id or msg.sender != booth.proposer_id:
            ctx.diag(RejectReason.MALFORMED)
            return
        need = 2 * booth.fault_budget
        qset = set(msg.quorum)
        if len(qset) != need or len(msg.quorum) != need:
            ctx.diag(RejectReason.QUORUM_MISMATCH)
            return
        if not qset <= set(booth.member_ids):
            ctx.diag(RejectReason.FOREIGN_QUORUM_MEMBER)
            return
        if booth.pivot_id not in qset:
            ctx.diag(RejectReason.PIVOT_MISSING)
            return
        expected = commit_cert_digest(ts, msg.tx_hash, booth.booth_hash)
        ctx.env.meter.verify(booth.threshold)
        if not verify_aggregate(msg.cert, expected, booth.directory_map,
                                booth.threshold):
            ctx.diag(RejectReason.BAD_CERT)
            return
        if set(msg.cert.signers(booth.member_ids)) != qset:
            ctx.diag(RejectReason.QUORUM_MISMATCH)
            return

        tx = pc.tx
        if tx is None:
            entries = ctx.log.id_range(pc.first_id, pc.last_id)
            if entries is None:
                ctx.diag(RejectReason.UNKNOWN_INSTANCE)
                return
            links = prune_memberships(entries, self._booth_of)
            tx = Transaction(
                window_start_us=ts, window_len_us=ctx.config.delta_us,
                entries=tuple(TxEntry(e.ordering_id, e.batch, e.cert)
                              for e in entries),
                membership_links=tuple(links))
        record = CommitRecord(
            consensus_id=ts, quorum=tuple(sorted(qset)),
            booth_hash=msg.booth_hash, cert=msg.cert, tx_hash=msg.tx_hash,
            committed_at_us=ctx.env.now_us())
        ctx.ledger.note_booth(booth)
        ctx.ledger.append_commit(record, tx, pc.reply_sets)
        if ctx.storage is not None:
            from .storage import VALIDATOR
            smi = ctx.storage.get(ctx.instance_id, VALIDATOR)
            smi.register_to_temp(tx, record, ctx.env.now_us())
        if ctx.committed_hook is not None:
            ctx.committed_hook(msg, tx)

    def _booth_of(self, booth_hash: bytes) -> BoothProfile:
        booth = self.ctx.booth_profiles.get(booth_hash)
        if booth is None:
            booth = self.ctx.ledger.booth_table[booth_hash]
        return booth
