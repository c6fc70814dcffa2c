"""Identities, signatures, and quorum certificates.

There is one trust anchor: every node has a long-lived Ed25519 identity key
registered with the global key service (`KeyService`), and every signature
in the protocol is made with one. A partial is one member's identity
signature over a payload digest. A quorum certificate is a certified
multisig: a signer bitmap over the booth's sorted member list followed by
each signer's 64-byte identity signature, in member order. The bitmap is
the one record of who signed, as in the multisignatures of Boneh, Drijvers
and Neven (ASIACRYPT 2018); `AggregateSignature.signers` decodes it and
refuses any encoding but the canonical one. `aggregate` and
`verify_aggregate` check every signer against the key the registry holds
for it, never against keys a booth profile carries, so a profile cannot
bring its own keys; how many signers a certificate needs, and which, is
`BoothProfile.check_certified`'s rule. The certified digests
(`ledger.order_cert_digest`, `ledger.commit_cert_digest`) include the
booth hash, so a certificate still binds its entry to exactly one booth,
and anyone holding the registry can check it, inside the booth or not. Its
size grows with the signers (64 bytes each plus the bitmap) instead of
being constant; the interface hides the representation so a constant-size
scheme could replace it without touching callers.

A run does its deterministic work once: `recall(key, compute, *args)`
returns what `compute(*args)` returned for `key` earlier in the run, from
one memo. Each key names its kind first and holds every input of its
result. Signing keeps one entry per signature: `SigningKey.sign` signs
each "sign" key (verify key, digest) once and holds the signature it made.
Ed25519 signing is deterministic and `sign(sk, m)` always verifies under
`pk(sk)` (RFC 8032), so `verify_raw` accepts, with no check, exactly the
signature a "sign" entry holds for its key and digest. Any other bytes get
one real Ed25519 check, whose bool, for accepts and rejects alike, a "sig"
key (verify key, digest, signature) holds; that check parses the key
through a "pub" key. So a "sig" entry is only ever a signature this run
did not make, or one whose "sign" entry was dropped. A raw
`Ed25519PrivateKey` records nothing; a flipped bit in any input is another
key. The other kinds are "cert" (`BoothProfile.check_certified`'s reason
and verify charge, keyed on booth hash, certificate, digest, the
registry's keys for the members and whether it holds the pivot as one)
and the digests "order-cert" and "commit-cert": verdicts only, as a
delivered message reaches its receiver by reference (see `messages`). A
compute that raises stores nothing. The memo holds at most `MEMO_SIZE`
entries: when full it drops its older half, in insertion order, so a long
run keeps the verdicts it reached last. `clear_caches`, which
`harness.run` calls at its start and end, empties it, so no run sees
another run's entries and none outlives its run. Callers charge modeled
cost (`CostMeter`) on a hit as on a miss.

`SigningKey.sign` signs through libsodium (`crypto_sign_ed25519_detached`)
when it loads at import, else through `cryptography`: RFC 8032 signing is
deterministic, so only speed differs. Verification stays on `cryptography`:
libsodium rejects some non-canonical or small-order inputs OpenSSL accepts,
and the memo stores what the one real check returned.
"""

from __future__ import annotations

from ctypes import (CDLL, CFUNCTYPE, c_char_p, c_int, c_ulonglong, c_void_p,
                    create_string_buffer)
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import digest, pack, record, Wire   # digest, pack: perfbench
from .errors import (
    InsufficientPartials,
    InvalidPartial,
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


_PIVOT = Role.PIVOT             # read once: `is_pivot` runs per certificate


@record
class Identity(Wire):
    """Public face of a node: stable id, role hint, verify key, address."""

    node_id: int
    role: Role
    verify_key: bytes
    net_addr: str

    def __post_init__(self):
        if len(self.verify_key) != KEY_LEN:
            raise ValueError("verify_key must be 32 raw Ed25519 bytes")


def _load_sodium_sign():
    """libsodium's detached signer, or None if the library does not load."""
    for soname in ("libsodium.so.23", "libsodium.so", "libsodium.dylib"):
        try:
            lib = CDLL(soname)
        except OSError:
            continue
        if CFUNCTYPE(c_int)(("sodium_init", lib))() < 0:
            return None
        proto = CFUNCTYPE(c_int, c_char_p, c_void_p, c_char_p, c_ulonglong,
                          c_char_p)
        return proto(("crypto_sign_ed25519_detached", lib))
    return None


_sodium_sign = _load_sodium_sign()


class SigningKey:
    """Private half of an identity. Signing is deterministic (RFC 8032)."""

    __slots__ = ("node_id", "_key", "_secret", "verify_key", "_out")

    def __init__(self, node_id: int, seed: bytes):
        self.node_id = node_id
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.verify_key = self._key.public_key().public_bytes_raw()
        self._secret = seed + self.verify_key
        # libsodium's output, reused by every signature: `.raw` copies it
        self._out = create_string_buffer(SIG_LEN)

    def sign(self, payload_digest: bytes) -> bytes:
        return recall(("sign", self.verify_key, payload_digest), self._signed,
                      payload_digest)

    def _signed(self, payload_digest: bytes) -> bytes:
        if _sodium_sign is None:
            return self._key.sign(payload_digest)
        out = self._out
        if _sodium_sign(out, None, payload_digest, len(payload_digest),
                        self._secret):
            raise RuntimeError("crypto_sign_ed25519_detached failed")
        return out.raw


def make_identity(node_id: int, role: Role, seed: bytes,
                  net_addr: Optional[str] = None) -> tuple[Identity, SigningKey]:
    key = SigningKey(node_id, seed)
    addr = net_addr if net_addr is not None else f"sim://node/{node_id}"
    return Identity(node_id, role, key.verify_key, addr), key


MEMO_SIZE = 1 << 14

_memo: dict[tuple, object] = {}


def clear_caches() -> None:
    _memo.clear()


def remember(key: tuple, value) -> None:
    """Record `value` as what `key`'s computation returns in this run."""
    if len(_memo) >= MEMO_SIZE:
        for old in list(islice(_memo, (len(_memo) + 1) // 2)):
            del _memo[old]
    _memo[key] = value


_UNSET = object()


def recall(key: tuple, compute: Callable[..., object], *args):
    """`compute(*args)`, or what it returned for `key` earlier in this run.
    The key must hold every input of the result."""
    out = _memo.get(key, _UNSET)
    if out is _UNSET:
        out = compute(*args)
        remember(key, out)
    return out


def verify_raw(verify_key: bytes, payload_digest: bytes, sig: bytes) -> bool:
    if _memo.get(("sign", verify_key, payload_digest)) == sig:
        return True                         # the signature this run made
    return recall(("sig", verify_key, payload_digest, sig), _really_verifies,
                  verify_key, payload_digest, sig)


def _really_verifies(verify_key: bytes, payload_digest: bytes,
                     sig: bytes) -> bool:
    try:
        recall(("pub", verify_key), Ed25519PublicKey.from_public_bytes,
               verify_key).verify(sig, payload_digest)
        return True
    except (InvalidSignature, ValueError):
        return False


# -- partial signatures ---------------------------------------------------

@record
class PartialSignature(Wire):
    """One member's endorsement of a payload digest: sig_bytes is its
    identity key's 64-byte signature over the digest."""

    signer: int
    payload_digest: bytes
    sig_bytes: bytes


def make_partial(signer: SigningKey, payload_digest: bytes) -> PartialSignature:
    return PartialSignature(signer=signer.node_id,
                            payload_digest=payload_digest,
                            sig_bytes=signer.sign(payload_digest))


def verify_partial(partial: PartialSignature, verify_key: bytes,
                   payload_digest: Optional[bytes] = None) -> bool:
    """Check the partial's signature against a registered key."""
    expected = partial.payload_digest if payload_digest is None else payload_digest
    return (partial.payload_digest == expected
            and verify_raw(verify_key, expected, partial.sig_bytes))


# -- quorum certificates --------------------------------------------------

@record
class AggregateSignature(Wire):
    """Quorum certificate over one payload digest.

    sig_bytes = signer bitmap over the booth's sorted member list, then the
    signers' identity signatures in member order. The bitmap is the one
    record of who signed.
    """

    sig_bytes: bytes

    def signers(self, member_ids: Sequence[int]) -> Optional[list[int]]:
        """The members the bitmap names, decoded against a booth's sorted
        member list; None unless sig_bytes is a canonical bitmap (no bit
        set past the last member) followed by one signature per signer."""
        members = sorted(member_ids)
        raw = self.sig_bytes
        bitmap_len = (len(members) + 7) // 8
        if len(raw) < bitmap_len or int.from_bytes(
                raw[:bitmap_len], "little") >> len(members):
            return None
        signers = [m for i, m in enumerate(members)
                   if raw[i // 8] & (1 << (i % 8))]
        if len(raw) != bitmap_len + SIG_LEN * len(signers):
            return None
        return signers


def aggregate(partials: Sequence[PartialSignature], member_ids: Sequence[int],
              registry: "KeyService") -> AggregateSignature:
    """Combine members' partials into a quorum certificate naming every
    distinct signer among them.

    Raises MixedDigests, UnknownSigner, InvalidPartial, or
    InsufficientPartials; on success the certificate verifies against the
    registry's identity keys for `member_ids`.
    """
    if not partials:
        raise InsufficientPartials("no partials given")
    payload = partials[0].payload_digest
    by_signer: dict[int, bytes] = {}
    for partial in partials:
        if partial.payload_digest != payload:
            raise MixedDigests(
                "partials span multiple payload digests")
        if partial.signer not in member_ids:
            raise UnknownSigner(f"node {partial.signer} is not a member")
        sig = partial.sig_bytes
        if len(sig) != SIG_LEN or not verify_raw(
                registry.verify_key(partial.signer), payload, sig):
            raise InvalidPartial(f"signature from {partial.signer} invalid")
        by_signer.setdefault(partial.signer, sig)
    members = sorted(member_ids)
    bitmap = bytearray((len(members) + 7) // 8)
    sigs = bytearray()
    for idx, member in enumerate(members):
        if member in by_signer:
            bitmap[idx // 8] |= 1 << (idx % 8)
            sigs += by_signer[member]
    return AggregateSignature(sig_bytes=bytes(bitmap) + bytes(sigs))


def verify_aggregate(agg: AggregateSignature, payload_digest: bytes,
                     member_ids: Sequence[int],
                     registry: "KeyService") -> bool:
    """True iff the certificate is canonical and every signer its bitmap
    names signed `payload_digest` under the key the registry holds for it.
    How many signers count is the caller's rule."""
    signers = agg.signers(member_ids)
    if signers is None:
        return False
    start = (len(member_ids) + 7) // 8          # past the bitmap
    for key in registry.keys_of(signers):
        sig = agg.sig_bytes[start:start + SIG_LEN]
        start += SIG_LEN
        if key is None or not verify_raw(key, payload_digest, sig):
            return False
    return True


# -- key service ----------------------------------------------------------

class KeyService:
    """In-process stand-in for the global key generation service: the
    identity registry, the one PKI every node trusts."""

    def __init__(self):
        self.identities: dict[int, Identity] = {}
        self._keys: dict[tuple[int, ...], tuple[Optional[bytes], ...]] = {}

    def register(self, identity: Identity) -> None:
        self.identities[identity.node_id] = identity
        self._keys.clear()

    def verify_key(self, node_id: int) -> bytes:
        try:
            return self.identities[node_id].verify_key
        except KeyError:
            raise UnknownNode(f"node {node_id} is not registered") from None

    def is_pivot(self, node_id: int) -> bool:
        """Whether the registry names `node_id` a pivot validator. A profile
        names its own pivot, so this is what keeps a proposer from passing
        off any member (a colluder, say) as the manufacturer's node."""
        ident = self.identities.get(node_id)
        return ident is not None and ident.role == _PIVOT

    def keys_of(self, node_ids: Iterable[int]) -> tuple[Optional[bytes], ...]:
        """Each node's registered verify key, or None; kept per id tuple
        until the next `register`."""
        node_ids = tuple(node_ids)
        keys = self._keys.get(node_ids)
        if keys is None:
            keys = self._keys[node_ids] = tuple(getattr(
                self.identities.get(n), "verify_key", None) for n in node_ids)
        return keys
