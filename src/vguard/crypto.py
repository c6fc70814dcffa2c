"""Identities, signatures, and booth-scoped aggregate certificates.

Two trust anchors coexist:

* Every node has a long-lived Ed25519 identity key registered with the
  global key service. Anyone can verify an individual signature.
* Every booth additionally gets a directory of booth-local Ed25519 keys,
  dealt at composition time. A quorum certificate aggregates booth-local
  signatures, so only holders of a dealt share can contribute, and the
  certificate binds exactly which members signed. Outsiders can run the
  math on a directory that reaches them, but nothing anchors it, which is
  why cross-booth verification falls back to individual signatures.

The aggregate is a certified multisig: a signer bitmap over the booth's
sorted member list followed by one 64-byte signature per signer. Its size
grows with the threshold t (bounded by t * 64 bytes + a small header)
instead of being constant; the interface hides the representation so a
constant-size scheme could replace it without touching callers.

Signature checks are memoised. Ed25519 verification is a deterministic
function of (verify key, digest, signature), and every booth member, plus
the post-run audit, checks the same certificates and partials, so
`verify_raw` keys a memo on that full triple and stores the bool the real
check returned, for accepts and rejects alike. Signing fills the same memo:
Ed25519 signing is deterministic too, and `sign(sk, m)` always verifies
under `pk(sk)` (RFC 8032), so `SigningKey.sign` records its own triple as
valid and a signature made in this process never needs a real check. A
raw `Ed25519PrivateKey` records nothing. A flipped bit in any of the three
inputs is a different key and gets a real check. Parsed public keys are
kept beside it. Both memos hold at most `MEMO_SIZE` entries, are emptied
when full, and are emptied by `clear_caches`, which `harness.run` calls at
its start and its end, so no run sees another run's entries and none
outlives its run. Modeled cost is unaffected: callers charge
`CostMeter.verify` per check whether or not the memo answers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import digest, pack, Reader
from .errors import (
    InsufficientPartials,
    InvalidPartial,
    InvalidThreshold,
    MixedDigests,
    UnknownNode,
    UnknownSigner,
)

SIG_LEN = 64
KEY_LEN = 32


class Role(str, Enum):
    PROPOSER = "proposer"
    PIVOT = "pivot_validator"
    VEHICLE = "vehicle_validator"


@dataclass(frozen=True)
class Identity:
    """Public face of a node: stable id, role hint, verify key, address."""

    node_id: int
    role: Role
    verify_key: bytes
    net_addr: str

    def __post_init__(self):
        if len(self.verify_key) != KEY_LEN:
            raise ValueError("verify_key must be 32 raw Ed25519 bytes")


class SigningKey:
    """Private half of an identity. Signing is deterministic (RFC 8032)."""

    __slots__ = ("node_id", "_key", "verify_key")

    def __init__(self, node_id: int, seed: bytes):
        self.node_id = node_id
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.verify_key = self._key.public_key().public_bytes_raw()

    def sign(self, payload_digest: bytes) -> bytes:
        sig = self._key.sign(payload_digest)
        _remember((self.verify_key, payload_digest, sig), True)
        return sig


def make_identity(node_id: int, role: Role, seed: bytes,
                  net_addr: Optional[str] = None) -> tuple[Identity, SigningKey]:
    key = SigningKey(node_id, seed)
    addr = net_addr if net_addr is not None else f"sim://node/{node_id}"
    return Identity(node_id, role, key.verify_key, addr), key


MEMO_SIZE = 1 << 14

_pub_cache: dict[bytes, Ed25519PublicKey] = {}
_verified: dict[tuple[bytes, bytes, bytes], bool] = {}
_signer_sets: dict[tuple[int, ...], bytes] = {}


def clear_caches() -> None:
    _pub_cache.clear()
    _verified.clear()
    _signer_sets.clear()


def _public_key(raw: bytes) -> Ed25519PublicKey:
    key = _pub_cache.get(raw)
    if key is None:
        key = Ed25519PublicKey.from_public_bytes(raw)
        if len(_pub_cache) >= MEMO_SIZE:
            _pub_cache.clear()
        _pub_cache[raw] = key
    return key


def _remember(triple: tuple[bytes, bytes, bytes], ok: bool) -> None:
    if len(_verified) >= MEMO_SIZE:
        _verified.clear()
    _verified[triple] = ok


def verify_raw(verify_key: bytes, payload_digest: bytes, sig: bytes) -> bool:
    triple = (verify_key, payload_digest, sig)
    ok = _verified.get(triple)
    if ok is None:
        try:
            _public_key(verify_key).verify(sig, payload_digest)
            ok = True
        except (InvalidSignature, ValueError):
            ok = False
        _remember(triple, ok)
    return ok


# -- partial signatures ---------------------------------------------------

@dataclass(frozen=True)
class PartialSignature:
    """One member's endorsement of a payload digest.

    sig_bytes packs the individual-identity signature and, when the signer
    holds a share for the relevant booth, the booth-local signature used
    for aggregation. Either component can be checked on its own.
    """

    signer: int
    payload_digest: bytes
    sig_bytes: bytes

    def components(self) -> tuple[bytes, bytes]:
        """(individual, booth) signatures, parsed once per object; malformed
        sig_bytes raise ValueError on every call."""
        parts = self.__dict__.get("_components")
        if parts is None:
            r = Reader(self.sig_bytes)
            parts = (r.bytes_(), r.bytes_())
            r.expect_done()
            object.__setattr__(self, "_components", parts)
        return parts


def make_partial(signer: SigningKey, payload_digest: bytes,
                 booth_key: Optional[SigningKey | Ed25519PrivateKey] = None,
                 ) -> PartialSignature:
    individual = signer.sign(payload_digest)
    booth = booth_key.sign(payload_digest) if booth_key is not None else b""
    return PartialSignature(
        signer=signer.node_id,
        payload_digest=payload_digest,
        sig_bytes=pack(individual, booth),
    )


def verify_partial(partial: PartialSignature, verify_key: bytes,
                   payload_digest: Optional[bytes] = None) -> bool:
    """Check the individual-signature component against a registered key."""
    expected = partial.payload_digest if payload_digest is None else payload_digest
    if partial.payload_digest != expected:
        return False
    try:
        individual, _ = partial.components()
    except ValueError:
        return False
    return verify_raw(verify_key, expected, individual)


def verify_partial_set(partials: Iterable[PartialSignature], payload_digest: bytes,
                       required: int, registry: "KeyService") -> bool:
    """True iff >= required distinct signers validly endorsed the digest.

    This is the cross-booth fallback: it relies only on globally anchored
    identity keys, never on booth-local material.
    """
    seen: set[int] = set()
    for partial in partials:
        if partial.signer in seen:
            continue
        key = registry.identities.get(partial.signer)
        if key is None:
            continue
        if verify_partial(partial, key.verify_key, payload_digest):
            seen.add(partial.signer)
            if len(seen) >= required:
                return True
    return len(seen) >= required


# -- booth key material and aggregation ----------------------------------

@dataclass(frozen=True)
class BoothKeyMaterial:
    """Output of the dealer for one booth.

    directory is public within the protocol (it rides along in booth
    profiles); share_seeds are dealt member-by-member and never leave the
    key service in serialized form.
    """

    threshold: int
    member_ids: tuple[int, ...]           # sorted ascending
    directory: Mapping[int, bytes]        # node_id -> booth-local verify key
    share_seeds: Mapping[int, bytes] = field(repr=False, default_factory=dict)


def setup_booth_keys(member_ids: Sequence[int], threshold: int,
                     seed_source) -> BoothKeyMaterial:
    """Deal booth-local keys for a membership.

    seed_source is any object with a ``bytes(n)`` method (a seeded numpy
    Generator in practice), keeping the dealt material reproducible.
    """
    members = tuple(sorted(set(member_ids)))
    if len(members) != len(member_ids):
        raise InvalidThreshold("duplicate member ids in booth")
    size = len(members)
    fault_budget = (size - 1) // 3
    if not 2 * fault_budget <= threshold <= size:
        raise InvalidThreshold(
            f"threshold {threshold} outside [2f={2 * fault_budget}, n={size}]")
    directory: dict[int, bytes] = {}
    seeds: dict[int, bytes] = {}
    for member in members:
        seed = seed_source.bytes(KEY_LEN)
        seeds[member] = seed
        directory[member] = (
            Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        )
    return BoothKeyMaterial(threshold=threshold, member_ids=members,
                            directory=directory, share_seeds=seeds)


def signer_set_digest(signers: Iterable[int]) -> bytes:
    """Digest of a signer set, memoised: a run certifies with a handful of
    distinct sets, thousands of times over."""
    key = tuple(sorted(signers))
    out = _signer_sets.get(key)
    if out is None:
        out = digest("signer-set", list(key))
        if len(_signer_sets) >= MEMO_SIZE:
            _signer_sets.clear()
        _signer_sets[key] = out
    return out


@dataclass(frozen=True)
class AggregateSignature:
    """Quorum certificate over one payload digest.

    sig_bytes = signer bitmap over the booth's sorted member list, then the
    contributing booth-local signatures in member order.
    """

    threshold: int
    sig_bytes: bytes
    signer_set_digest: bytes

    def signers(self, member_ids: Sequence[int]) -> list[int]:
        """Decode the signer bitmap against a booth's sorted member list."""
        members = sorted(member_ids)
        bitmap_len = (len(members) + 7) // 8
        bitmap = self.sig_bytes[:bitmap_len]
        out = []
        for idx, member in enumerate(members):
            if bitmap[idx // 8] & (1 << (idx % 8)):
                out.append(member)
        return out


def aggregate(partials: Sequence[PartialSignature],
              material: BoothKeyMaterial) -> AggregateSignature:
    """Combine booth-local partials into a quorum certificate.

    Raises MixedDigests, UnknownSigner, InvalidPartial, or
    InsufficientPartials; on success the certificate verifies against the
    booth directory.
    """
    if not partials:
        raise InsufficientPartials("no partials given")
    payload = partials[0].payload_digest
    by_signer: dict[int, bytes] = {}
    for partial in partials:
        if partial.payload_digest != payload:
            raise MixedDigests(
                "partials span multiple payload digests")
        if partial.signer not in material.directory:
            raise UnknownSigner(f"node {partial.signer} holds no share here")
        try:
            _, booth_sig = partial.components()
        except ValueError as exc:
            raise InvalidPartial(str(exc)) from exc
        if not booth_sig:
            raise InvalidPartial(f"partial from {partial.signer} lacks booth component")
        if not verify_raw(material.directory[partial.signer], payload, booth_sig):
            raise InvalidPartial(f"booth signature from {partial.signer} invalid")
        by_signer.setdefault(partial.signer, booth_sig)
    if len(by_signer) < material.threshold:
        raise InsufficientPartials(
            f"{len(by_signer)} distinct partials < threshold {material.threshold}")
    members = list(material.member_ids)
    bitmap = bytearray((len(members) + 7) // 8)
    sigs = bytearray()
    for idx, member in enumerate(members):
        if member in by_signer:
            bitmap[idx // 8] |= 1 << (idx % 8)
            sigs += by_signer[member]
    return AggregateSignature(
        threshold=material.threshold,
        sig_bytes=bytes(bitmap) + bytes(sigs),
        signer_set_digest=signer_set_digest(by_signer),
    )


def verify_aggregate(agg: AggregateSignature, payload_digest: bytes,
                     directory: Mapping[int, bytes], threshold: int) -> bool:
    """True iff the certificate carries >= threshold valid booth-local
    signatures from distinct directory members and its signer-set digest
    matches the bitmap."""
    members = sorted(directory)
    bitmap_len = (len(members) + 7) // 8
    raw = agg.sig_bytes
    if len(raw) < bitmap_len:
        return False
    bitmap, sig_blob = raw[:bitmap_len], raw[bitmap_len:]
    signers = [m for i, m in enumerate(members) if bitmap[i // 8] & (1 << (i % 8))]
    if len(sig_blob) != SIG_LEN * len(signers):
        return False
    if len(signers) < threshold or agg.threshold != threshold:
        return False
    if agg.signer_set_digest != signer_set_digest(signers):
        return False
    for idx, signer in enumerate(signers):
        sig = sig_blob[idx * SIG_LEN:(idx + 1) * SIG_LEN]
        if not verify_raw(directory[signer], payload_digest, sig):
            return False
    return True


# -- key service ----------------------------------------------------------

class KeyService:
    """In-process stand-in for the global key generation service.

    Holds the identity registry (the PKI every node trusts) and dealt booth
    material. Booth shares are handed out only to the member they were dealt
    to, mirroring member-only share distribution.
    """

    def __init__(self):
        self.identities: dict[int, Identity] = {}
        self._materials: dict[bytes, BoothKeyMaterial] = {}
        self._share_keys: dict[tuple[bytes, int], SigningKey] = {}

    def register(self, identity: Identity) -> None:
        self.identities[identity.node_id] = identity

    def verify_key(self, node_id: int) -> bytes:
        try:
            return self.identities[node_id].verify_key
        except KeyError:
            raise UnknownNode(f"node {node_id} is not registered") from None

    def install_booth(self, booth_id: bytes, material: BoothKeyMaterial) -> None:
        self._materials[booth_id] = material

    def has_booth(self, booth_id: bytes) -> bool:
        return booth_id in self._materials

    def material(self, booth_id: bytes) -> Optional[BoothKeyMaterial]:
        return self._materials.get(booth_id)

    def booth_share(self, booth_id: bytes, node_id: int) -> Optional[SigningKey]:
        """The member's booth-local signing key, or None for non-members.
        Its `verify_key` is the member's entry in the booth directory."""
        cached = self._share_keys.get((booth_id, node_id))
        if cached is not None:
            return cached
        material = self._materials.get(booth_id)
        if material is None:
            return None
        seed = material.share_seeds.get(node_id)
        if seed is None:
            return None
        key = SigningKey(node_id, seed)
        self._share_keys[(booth_id, node_id)] = key
        return key
