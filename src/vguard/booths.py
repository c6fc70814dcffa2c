"""Immutable booth profiles.

A booth is one membership configuration: the proposer, the pivot validator
(the manufacturer's always-on presence), and enough vehicle validators to
reach size 3f+1. Profiles are value objects: the mutable bookkeeping that
decides when a booth is still usable lives in the membership unit, not here.
The profile digest pins the proposer, pivot, creation time and members
(their identities), so any two nodes naming the same digest mean the same
booth. The quorum size is 2f by construction, so a profile stores none. A
profile holds no keys of its own: its certificates are checked against the
identity registry (`crypto.KeyService`), and the booth hash inside every
certified digest binds them to this booth. A certificate's signer bitmap
is its quorum: `check_certified` decodes the signers from it and holds
them to the booth's shape rules.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .codec import (digest, pack, Packed, Reader,  # pack: perfbench
                    record, Wire)
from .crypto import (AggregateSignature, Identity, KeyService, recall,
                     verify_aggregate)
from .errors import RejectReason


@record
class BoothProfile(Wire):
    """A booth: its proposer, pivot, composition time and members."""

    proposer_id: int
    pivot_id: int
    created_at_us: int
    members: tuple[Identity, ...]          # sorted by node_id

    def __post_init__(self):
        ids = [m.node_id for m in self.members]
        if ids != sorted(set(ids)):
            raise ValueError("members must be unique and sorted by node_id")
        if self.proposer_id not in ids or self.pivot_id not in ids:
            raise ValueError("booth must contain its proposer and pivot")

    @cached_property
    def packed(self) -> bytes:
        """Canonical bytes of the profile: packed once, or the slice it was
        decoded from, which the canonical format makes the same bytes."""
        return super().to_field().raw

    @cached_property
    def booth_hash(self) -> bytes:
        # digest("booth", <the four fields>): the packed fields are the
        # canonical bytes after their 5-byte sequence header
        return digest("booth", Packed(self.packed[5:]))

    @cached_property
    def member_ids(self) -> tuple[int, ...]:
        return tuple(m.node_id for m in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def fault_budget(self) -> int:
        return (self.size - 1) // 3

    def validators(self) -> tuple[int, ...]:
        """Member ids excluding the proposer."""
        return tuple(i for i in self.member_ids if i != self.proposer_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.member_ids

    def check_certified(self, cert: AggregateSignature,
                        payload_digest: bytes, registry: KeyService,
                        meter=None) -> Optional[RejectReason]:
        """Why `cert` over `payload_digest` does not count in this booth, or
        None if it does. Its bitmap must be canonical and name 2f
        validators (members other than the proposer, so each one checked
        the proposer's signature before countersigning) with the pivot
        among them, a pivot the registry holds as one
        (`KeyService.is_pivot`); their signatures must verify under their
        keys in `registry`. The meter, if any, is charged one 2f verify,
        and only once the signers' shape holds. The verdict and its charge
        are memoised (`crypto.recall`) on every input, the members'
        registered keys and the pivot's role too, so a repeat is a lookup."""
        is_pivot = registry.is_pivot(self.pivot_id)
        reason, charge = recall(
            ("cert", self.booth_hash, cert, payload_digest,
             registry.keys_of(self.member_ids), is_pivot),
            lambda: ((fault, 0) if (fault := self._misshapen(cert, is_pivot))
                     else (None if verify_aggregate(
                         cert, payload_digest, self.member_ids, registry)
                         else RejectReason.BAD_CERT, 2 * self.fault_budget)))
        if meter is not None and charge:
            meter.verify(charge)
        return reason

    def _misshapen(self, cert, is_pivot: bool) -> Optional[RejectReason]:
        """The first of `check_certified`'s rules on signers `cert` breaks."""
        signers = cert.signers(self.member_ids)
        if signers is None:
            return RejectReason.BAD_CERT
        if len(signers) != 2 * self.fault_budget:
            return RejectReason.QUORUM_MISMATCH
        if self.proposer_id in signers:
            return RejectReason.FOREIGN_QUORUM_MEMBER
        if self.pivot_id not in signers:
            return RejectReason.PIVOT_MISSING
        if not is_pivot:
            return RejectReason.NOT_PIVOT
        return None

    # wire form -----------------------------------------------------------

    def to_field(self) -> Packed:
        return Packed(self.packed)

    @classmethod
    def read_from(cls, r: Reader) -> "BoothProfile":
        start = r.tell()
        profile = super().read_from(r)
        profile.__dict__["packed"] = r.slice_from(start)
        return profile


def build_profile(members: Sequence[Identity], proposer_id: int, pivot_id: int,
                  created_at_us: int = 0) -> BoothProfile:
    ordered = tuple(sorted(members, key=lambda m: m.node_id))
    return BoothProfile(
        members=ordered,
        proposer_id=proposer_id,
        pivot_id=pivot_id,
        created_at_us=created_at_us,
    )
