"""Identity signatures, the identity registry, and quorum certificates."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vguard import crypto, ledger
from vguard.booths import build_profile
from vguard.codec import digest
from vguard.crypto import (
    AggregateSignature,
    Ed25519PrivateKey,
    KeyService,
    aggregate,
    make_identity,
    make_partial,
    verify_aggregate,
    verify_partial,
    verify_raw,
    Role,
)
from vguard.errors import (
    RejectReason,
    InsufficientPartials,
    InvalidPartial,
    MixedDigests,
    UnknownSigner,
)
from vguard.harness import RunSpec, run

from conftest import (CountingMeter, certify, impostor_identity, make_booth,
                      make_pool, rekeyed_registry)

# Aggregates are certified multisigs, not a constant-size threshold scheme:
# the accepted size envelope is t 64-byte signatures for t signers plus the
# signer bitmap (one bit per booth member, byte-padded).
AGGREGATE_SIZE_BOUND = lambda t, n: t * 64 + (n + 7) // 8


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_sign_verify_roundtrip():
    ident, key = make_identity(5, Role.VEHICLE, _rng().bytes(32))
    payload = digest("t", b"hello")
    partial = make_partial(key, payload)
    assert partial.signer == 5
    assert verify_partial(partial, ident.verify_key)


def test_any_bit_flip_breaks_verification():
    ident, key = make_identity(5, Role.VEHICLE, _rng().bytes(32))
    payload = digest("t", b"hello")
    partial = make_partial(key, payload)
    flipped = bytes([payload[0] ^ 1]) + payload[1:]
    assert not verify_partial(partial, ident.verify_key, flipped)
    # flipping any one bit of the signature must fail too, also after the
    # untampered signature has been checked (and memoised)
    assert verify_partial(partial, ident.verify_key)
    for pos in range(len(partial.sig_bytes)):
        forged = bytearray(partial.sig_bytes)
        forged[pos] ^= 1 << (pos % 8)
        bad = type(partial)(partial.signer, payload, bytes(forged))
        assert not verify_partial(bad, ident.verify_key)


def test_partial_is_one_identity_signature():
    ident, key = make_identity(5, Role.VEHICLE, _rng(12).bytes(32))
    payload = digest("t", b"one signature")
    partial = make_partial(key, payload)
    assert len(partial.sig_bytes) == crypto.SIG_LEN == 64
    assert partial.sig_bytes == key.sign(payload)
    assert verify_raw(ident.verify_key, payload, partial.sig_bytes)


def test_partial_rejected_under_wrong_key():
    _, key = make_identity(5, Role.VEHICLE, _rng(1).bytes(32))
    other, _ = make_identity(6, Role.VEHICLE, _rng(2).bytes(32))
    payload = digest("t", b"x")
    partial = make_partial(key, payload)
    assert not verify_partial(partial, other.verify_key)


def _verifies(agg, payload, booth, registry) -> bool:
    return verify_aggregate(agg, payload, booth.member_ids, registry)


def test_aggregate_two_of_four_verifies(pool4, booth4):
    booth = booth4
    payload = digest("t", b"batch")
    _, agg = certify(pool4, booth, payload, (2, 3))
    assert _verifies(agg, payload, booth, pool4.registry)
    assert agg.signers(booth.member_ids) == [2, 3]


def test_every_subthreshold_subset_fails(pool4, booth4):
    # Oracle: enumerate every subset smaller than 2f; none aggregates into
    # a certificate the booth counts, whatever its signatures.
    booth = booth4
    payload = digest("t", b"batch")
    all_partials = {m: make_partial(pool4.keys[m], payload)
                    for m in booth.member_ids}

    def combine(parts):
        return aggregate(parts, booth.member_ids, pool4.registry)

    with pytest.raises(InsufficientPartials):
        combine([])
    for size in range(1, 2 * booth.fault_budget):
        for subset in itertools.combinations(booth.member_ids, size):
            cert = combine([all_partials[m] for m in subset])
            assert cert.signers(booth.member_ids) == list(subset)
            assert booth.check_certified(cert, payload, pool4.registry) \
                is RejectReason.QUORUM_MISMATCH
    # duplicates of one signer never count twice
    cert = combine([all_partials[2], all_partials[2]])
    assert cert.signers(booth.member_ids) == [2]
    assert booth.check_certified(cert, payload, pool4.registry) \
        is RejectReason.QUORUM_MISMATCH


def test_aggregate_rejects_foreign_and_mixed(pool4, booth4):
    booth = booth4
    pool_b = make_pool([1, 2, 3, 4, 5, 6], seed=11)
    payload = digest("t", b"batch")
    other_payload = digest("t", b"other")
    good = make_partial(pool4.keys[2], payload)
    mixed = make_partial(pool4.keys[3], other_payload)

    def combine(parts):
        return aggregate(parts, booth.member_ids, pool4.registry)

    with pytest.raises(MixedDigests):
        combine([good, mixed])
    foreign = make_partial(pool_b.keys[5], payload)
    with pytest.raises(UnknownSigner):
        combine([good, foreign])


def test_partial_that_is_not_one_valid_signature_cannot_aggregate(pool4,
                                                                  booth4):
    booth = booth4
    payload = digest("t", b"batch")
    good = make_partial(pool4.keys[3], payload)
    sig = make_partial(pool4.keys[2], payload).sig_bytes
    impostor = make_partial(make_pool([2], seed=5, pivot_id=2).keys[2],
                            payload)
    for bad in (sig + sig, sig[:-1], impostor.sig_bytes, b""):
        with pytest.raises(InvalidPartial):
            aggregate([type(good)(2, payload, bad), good], booth.member_ids,
                      pool4.registry)


def test_cross_booth_verification_fails(pool4):
    # Same members, two booths: a certificate over one booth's ordering
    # digest does not certify the same entry in the other, because the
    # booth hash is inside the certified digest.
    booth_a = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=1)
    booth_b = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=2)
    assert booth_a.booth_hash != booth_b.booth_hash
    batch_hash = digest("t", b"batch")
    digest_a = ledger.order_cert_digest(1, batch_hash, booth_a.booth_hash)
    digest_b = ledger.order_cert_digest(1, batch_hash, booth_b.booth_hash)
    _, agg = certify(pool4, booth_a, digest_a, (2, 3))
    assert booth_a.check_certified(agg, digest_a, pool4.registry) is None
    assert booth_b.check_certified(agg, digest_b, pool4.registry) \
        is RejectReason.BAD_CERT
    assert not _verifies(agg, digest_b, booth_b, pool4.registry)


def test_aggregate_size_envelope_small_and_large():
    # Relaxed size contract: multisig certificates grow with t but stay
    # within AGGREGATE_SIZE_BOUND for both a minimal and a large booth.
    for n, seed in ((4, 3), (61, 4)):
        rng = _rng(seed)
        members = list(range(1, n + 1))
        pool = make_pool(members, seed=seed)
        f = (n - 1) // 3
        t = 2 * f
        payload = digest("t", rng.bytes(8))
        keyed = [make_partial(pool.keys[m], payload) for m in members[:t]]
        agg = aggregate(keyed, members, pool.registry)
        assert len(agg.sig_bytes) <= AGGREGATE_SIZE_BOUND(t, n)
        assert verify_aggregate(agg, payload, members, pool.registry)


def test_setup_is_deterministic_per_seed():
    """Identity keys, and the certificates they sign, follow the seed."""
    def setup(seed):
        pool = make_pool([1, 2, 3, 4], seed=seed)
        booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
        cert = certify(pool, booth, digest("t", b"batch"), (2, 3))[1]
        return pool.registry.keys_of([1, 2, 3, 4]), cert

    assert setup(42) == setup(42)
    keys, cert = setup(43)
    assert keys != setup(42)[0] and cert != setup(42)[1]


def test_tampered_aggregate_rejected(pool4, booth4):
    booth = booth4
    payload = digest("t", b"batch")
    _, agg = certify(pool4, booth, payload, (2, 3))
    # flip one signature bit
    raw = bytearray(agg.sig_bytes)
    raw[-1] ^= 1
    bad = type(agg)(bytes(raw))
    assert not _verifies(bad, payload, booth, pool4.registry)
    # a bitmap naming other signers than the signatures carry
    lied = type(agg)(bytes([0b1010]) + agg.sig_bytes[1:])     # 2 and 4
    assert lied.signers(booth.member_ids) == [2, 4]
    assert not _verifies(lied, payload, booth, pool4.registry)
    # a signer the registry does not know never verifies
    assert not _verifies(agg, payload, booth, KeyService())


_POOL10 = make_pool(range(1, 11), seed=13)
_BOOTHS = (make_booth(_POOL10, [1, 2, 3, 4], proposer_id=1, pivot_id=2),
           make_booth(_POOL10, range(1, 11), proposer_id=1, pivot_id=2))

# any bytes, and bytes shaped like a bitmap plus whole signatures
_SIG_BYTES = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda bitmap, sigs: bitmap + b"".join(sigs),
              st.binary(max_size=3),
              st.lists(st.binary(min_size=64, max_size=64), max_size=7)))


@given(raw=_SIG_BYTES, booth_idx=st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_check_certified_decides_any_bytes_without_raising(raw, booth_idx):
    """Whatever a certificate's bytes, the check returns a reason or None:
    a decode never raises inside a validator's handler."""
    booth = _BOOTHS[booth_idx]
    payload = digest("t", b"any bytes")
    reason = booth.check_certified(AggregateSignature(raw), payload,
                                   _POOL10.registry)
    assert reason is None or isinstance(reason, RejectReason)
    assert reason is not None    # none of these bytes was ever signed


def test_verify_memo_keys_on_the_full_triple():
    ident, key = make_identity(5, Role.VEHICLE, _rng(3).bytes(32))
    other, _ = make_identity(6, Role.VEHICLE, _rng(4).bytes(32))
    payload = digest("t", b"memo")
    sig = key.sign(payload)
    assert verify_raw(ident.verify_key, payload, sig)
    assert verify_raw(ident.verify_key, payload, sig)
    flipped_sig = sig[:-1] + bytes([sig[-1] ^ 1])
    flipped_digest = bytes([payload[0] ^ 1]) + payload[1:]
    # each rejection holds on the first check and on the memoised one
    for _ in range(2):
        assert not verify_raw(ident.verify_key, payload, flipped_sig)
        assert not verify_raw(ident.verify_key, flipped_digest, sig)
        assert not verify_raw(other.verify_key, payload, sig)
        assert not verify_raw(b"\x00" * 31, payload, sig)   # unparsable key
    assert verify_raw(ident.verify_key, payload, sig)


def test_verify_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(crypto, "MEMO_SIZE", 4)
    crypto.clear_caches()
    ident, key = make_identity(5, Role.VEHICLE, _rng(5).bytes(32))
    payloads = [digest("t", i) for i in range(10)]
    sigs = [key.sign(p) for p in payloads]
    for idx, payload in enumerate(payloads):
        assert verify_raw(ident.verify_key, payload, sigs[idx])
        assert not verify_raw(ident.verify_key, payload, sigs[idx - 1])
        assert len(crypto._memo) <= 4
    crypto.clear_caches()
    assert not crypto._memo


def test_signing_records_its_triple_and_needs_no_real_check(real_checks):
    ident, key = make_identity(5, Role.VEHICLE, _rng(6).bytes(32))
    payload = digest("t", b"signed here")
    sig = key.sign(payload)
    assert crypto._memo == {("sig", ident.verify_key, payload, sig): True,
                            ("sign", ident.verify_key, payload): sig}
    assert verify_raw(ident.verify_key, payload, sig)
    assert verify_partial(make_partial(key, payload), ident.verify_key)
    assert real_checks == []


def test_one_flipped_bit_after_signing_gets_a_real_check(real_checks):
    ident, key = make_identity(5, Role.VEHICLE, _rng(7).bytes(32))
    payload = digest("t", b"flip")
    sig = key.sign(payload)
    vk = ident.verify_key
    for bit in (0, 77, 255):
        byte, mask = bit // 8, 1 << (bit % 8)
        flipped_key = vk[:byte] + bytes([vk[byte] ^ mask]) + vk[byte + 1:]
        flipped_digest = (payload[:byte] + bytes([payload[byte] ^ mask])
                          + payload[byte + 1:])
        flipped_sig = sig[:byte] + bytes([sig[byte] ^ mask]) + sig[byte + 1:]
        # a flipped key can be unparsable, which rejects before verify
        for triple, checks in (((flipped_key, payload, sig), (0, 1)),
                               ((vk, flipped_digest, sig), (1,)),
                               ((vk, payload, flipped_sig), (1,))):
            assert ("sig", *triple) not in crypto._memo
            before = len(real_checks)
            assert not verify_raw(*triple)
            assert crypto._memo[("sig", *triple)] is False
            assert len(real_checks) - before in checks
    assert verify_raw(vk, payload, sig)


def test_foreign_and_garbage_signatures_get_real_checks(real_checks):
    ident, key = make_identity(5, Role.VEHICLE, _rng(8).bytes(32))
    other, other_key = make_identity(6, Role.VEHICLE, _rng(9).bytes(32))
    payload = digest("t", b"foreign")
    # made by a raw key, so nothing was recorded: a real check accepts it
    raw = crypto.Ed25519PrivateKey.from_private_bytes(_rng(8).bytes(32))
    foreign = raw.sign(payload)
    assert crypto._memo == {}
    assert verify_raw(ident.verify_key, payload, foreign)
    assert len(real_checks) == 1
    # another signer's signature, and garbage of the right length
    assert not verify_raw(ident.verify_key, payload, other_key.sign(payload))
    assert not verify_raw(ident.verify_key, payload, b"\x00" * 64)
    assert not verify_raw(other.verify_key, payload, foreign)
    assert len(real_checks) == 4
    assert key.sign(payload) == foreign     # deterministic: the same bytes


def _held(kind: str) -> set:
    return {key for key in crypto._memo if key[0] == kind}


def test_real_checks_parse_each_key_once_and_store_no_bad_key(real_checks):
    ident, _ = make_identity(5, Role.VEHICLE, _rng(11).bytes(32))
    raw = crypto.Ed25519PrivateKey.from_private_bytes(_rng(11).bytes(32))
    payloads = [digest("t", i) for i in range(3)]
    for payload in payloads:
        assert verify_raw(ident.verify_key, payload, raw.sign(payload))
    assert len(real_checks) == 3
    assert _held("pub") == {("pub", ident.verify_key)}
    unparsable = b"\x00" * 31
    assert not verify_raw(unparsable, payloads[0], b"\x00" * 64)
    assert _held("pub") == {("pub", ident.verify_key)}
    assert crypto._memo[("sig", unparsable, payloads[0], b"\x00" * 64)] is False


def test_identity_keys_are_derived_once(monkeypatch):
    derived = []
    real = crypto.Ed25519PrivateKey.from_private_bytes

    class Counting:
        @staticmethod
        def from_private_bytes(seed):
            derived.append(seed)
            return real(seed)

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", Counting)
    seeds = [_rng(7).bytes(32), _rng(8).bytes(32)]
    keys = [make_identity(n, Role.VEHICLE, seed)[1]
            for n, seed in enumerate(seeds)]
    assert derived == seeds
    derived.clear()
    for key, seed in zip(keys, seeds):
        for n in range(3):
            make_partial(key, digest("t", n))
        assert key.verify_key == \
            real(seed).public_key().public_bytes_raw()
    assert derived == []
    crypto.clear_caches()


def test_registry_gives_registered_keys_and_none_for_outsiders(pool4):
    ids = sorted(pool4.keys)
    outsider = max(ids) + 1
    assert pool4.registry.keys_of(ids + [outsider]) == tuple(
        pool4.keys[i].verify_key for i in ids) + (None,)
    assert pool4.registry.verify_key(ids[0]) == pool4.keys[ids[0]].verify_key
    with pytest.raises(crypto.UnknownNode):
        pool4.registry.verify_key(outsider)


def test_registry_keys_are_kept_per_id_tuple_until_a_registration(pool4):
    ids = tuple(sorted(pool4.keys))
    keys = pool4.registry.keys_of(ids)
    assert pool4.registry.keys_of(list(ids)) is keys
    impostor, _ = impostor_identity(ids[2])
    pool4.registry.register(impostor)
    assert pool4.registry.keys_of(ids) == keys[:2] + (impostor.verify_key,) \
        + keys[3:]


def test_memo_stays_bounded_while_signing_records(monkeypatch, real_checks):
    monkeypatch.setattr(crypto, "MEMO_SIZE", 4)
    ident, key = make_identity(5, Role.VEHICLE, _rng(10).bytes(32))
    payloads = [digest("t", i) for i in range(10)]
    sigs = []
    for payload in payloads:
        sigs.append(key.sign(payload))
        assert len(crypto._memo) <= 4
    # the last sign is always remembered; evicted ones get a real check
    assert verify_raw(ident.verify_key, payloads[-1], sigs[-1])
    assert real_checks == []
    assert verify_raw(ident.verify_key, payloads[0], sigs[0])
    assert len(real_checks) == 1
    assert len(crypto._memo) <= 4


# Digest lengths a signer must handle: empty, short, a sha256, and longer.
SIGNED_LENGTHS = (0, 1, 32, 33, 64, 200)


def _seeded_signers(count: int):
    """(seed, SigningKey) for `count` identity keys, drawn four to a seeded
    generator."""
    out = []
    for pool_seed in range(count // 4):
        rng = _rng(1000 + pool_seed)
        for node_id in range(1, 5):
            seed = rng.bytes(32)
            out.append((seed, make_identity(node_id, Role.VEHICLE, seed)[1]))
    return out


@pytest.fixture(params=["loaded", "fallback"])
def signer_backend(request, monkeypatch):
    """Runs a test once with the signer found at import and once with the
    `cryptography` fallback forced, and empties the memo signing fills."""
    if request.param == "loaded":
        if crypto._sodium_sign is None:
            pytest.skip("libsodium did not load")
    else:
        monkeypatch.setattr(crypto, "_sodium_sign", None)
    yield request.param
    crypto.clear_caches()


def test_signing_key_matches_cryptography_byte_for_byte(signer_backend):
    rng = _rng(99)
    messages = [rng.bytes(n) for n in SIGNED_LENGTHS]
    signers = _seeded_signers(400)
    assert len(signers) == 400
    for seed, key in signers:
        reference = Ed25519PrivateKey.from_private_bytes(seed)
        assert key.verify_key == reference.public_key().public_bytes_raw()
        for message in messages:
            assert key.sign(message) == reference.sign(message)


@pytest.mark.skipif(crypto._sodium_sign is None,
                    reason="libsodium did not load")
def test_loaded_signer_never_falls_back(cryptography_signs):
    """Keys and a whole seeded run sign without touching `cryptography`'s
    signer, so a silent fallback cannot hide the fast path."""
    signers = _seeded_signers(16)
    for _, key in signers:
        for n in SIGNED_LENGTHS:
            key.sign(b"\x5a" * n)
    result = run(RunSpec(booth_size=4, duration_ms=100.0, grace_ms=100.0,
                         rate_per_s=100.0, seed=3))
    assert result.report["instances"][0]["committed_entries"] > 0
    assert cryptography_signs == []


# -- verdicts in the run memo ---------------------------------------------

def _own_verdict(kind, check):
    """`check()` twice: first beside what the memo holds now, where it must
    add a `kind` entry of its own, then with the memo emptied."""
    held = _held(kind)
    memoised = check()
    assert held and _held(kind) > held
    crypto.clear_caches()
    return memoised, check()


def test_certificate_variants_get_their_own_verdicts(pool4, booth4,
                                                     real_checks):
    """Once an honest certificate is memoised as valid, each variant of it
    is a new key, gets a fresh verdict and is rejected as without a memo."""
    booth, registry = booth4, pool4.registry
    payload = digest("t", b"cert")
    _, cert = certify(pool4, booth, payload, (2, 3))
    assert booth.check_certified(cert, payload, registry) is None
    assert booth.check_certified(cert, payload, registry) is None  # hit
    assert len(_held("cert")) == 1
    assert real_checks == []
    raw = bytearray(cert.sig_bytes)
    raw[-1] ^= 1
    flipped = type(cert)(bytes(raw))
    moved = type(cert)(bytes([0b1010]) + cert.sig_bytes[1:])  # names 2 and 4
    other_digest = digest("t", b"other")
    rekeyed = rekeyed_registry(registry, 3)
    variants = [
        (lambda: booth.check_certified(flipped, payload, registry),
         "BAD_CERT"),
        (lambda: booth.check_certified(moved, payload, registry),
         "BAD_CERT"),
        (lambda: booth.check_certified(cert, payload, rekeyed),
         "BAD_CERT"),
        (lambda: booth.check_certified(cert, other_digest, registry),
         "BAD_CERT"),
    ]
    for check, reason in variants:
        crypto.clear_caches()
        assert booth.check_certified(cert, payload, registry) is None
        memoised, fresh = _own_verdict("cert", check)
        assert memoised is fresh is RejectReason[reason]
    assert real_checks          # the flipped bit needed a real check


def test_certificate_signed_by_another_key_is_bad_cert(pool4, booth4):
    """Each signer is checked against its key in the registry, never
    against a key the profile carries: a quorum member's signature made
    with any other key is BAD_CERT, also when the profile lists that key
    as the member's."""
    booth, registry = booth4, pool4.registry
    ident, key = impostor_identity(3)
    swapped = build_profile(
        [ident if m.node_id == 3 else m for m in booth.members],
        booth.proposer_id, booth.pivot_id)
    for profile in (booth, swapped):
        payload = ledger.order_cert_digest(1, digest("t", b"b"),
                                           profile.booth_hash)
        forged = aggregate([make_partial(pool4.keys[2], payload),
                            make_partial(key, payload)],
                           profile.member_ids, rekeyed_registry(registry, 3))
        assert profile.check_certified(forged, payload, registry) \
            is RejectReason.BAD_CERT
        _, honest = certify(pool4, profile, payload, (2, 3))
        assert profile.check_certified(honest, payload, registry) is None


def _without_pivot(registry: KeyService) -> KeyService:
    """A copy of `registry` that holds pivot 2, under the same key, as a
    vehicle."""
    out = KeyService()
    for ident in registry.identities.values():
        out.register(replace(ident, role=Role.VEHICLE)
                     if ident.node_id == 2 else ident)
    return out


def test_memo_hit_charges_the_meter_as_a_miss_does(pool4, booth4):
    booth, registry = booth4, pool4.registry
    payload = digest("t", b"meter")
    certs = {signers: certify(pool4, booth, payload, signers)[1]
             for signers in [(2, 3), (2, 4), (3, 4), (2,), (1, 2)]}
    honest = certs[(2, 3)].sig_bytes
    # a bit set past the last of the four members: not a canonical bitmap
    certs["past"] = AggregateSignature(bytes([honest[0] | 0b10000])
                                       + honest[1:])
    no_pivot = _without_pivot(registry)
    assert no_pivot.keys_of(booth.member_ids) == registry.keys_of(
        booth.member_ids)
    cases = [((2, 3), registry, None, [2]),
             ((2, 4), registry, None, [2]),
             ((2, 4), registry, "BAD_CERT", [2]),       # signed another digest
             ("past", registry, "BAD_CERT", []),
             ((2,), registry, "QUORUM_MISMATCH", []),    # 2f - 1 signers
             ((1, 2), registry, "FOREIGN_QUORUM_MEMBER", []),
             ((3, 4), registry, "PIVOT_MISSING", []),
             # the first case's keys, whose verdict is held: whether the
             # registry holds the pivot as one is part of the key
             ((2, 3), no_pivot, "NOT_PIVOT", [])]
    crypto.clear_caches()
    for i, (signers, held, reason, charge) in enumerate(cases):
        digest_ = digest("t", b"other") if i == 2 else payload
        for _ in ("miss", "hit"):
            meter = CountingMeter()
            got = booth.check_certified(certs[signers], digest_, held, meter)
            assert (got, meter.verifies) == (
                reason and RejectReason[reason], charge), (signers, reason)


def test_certificate_digests_are_memoised_on_all_their_arguments(monkeypatch):
    calls = []

    def counted(label, *fields):
        calls.append((label, *fields))
        return digest(label, *fields)

    monkeypatch.setattr(ledger, "digest", counted)
    crypto.clear_caches()
    args = [(1, b"a" * 32, b"b" * 32), (2, b"a" * 32, b"b" * 32),
            (1, b"c" * 32, b"b" * 32), (1, b"a" * 32, b"d" * 32)]
    for _ in range(2):
        for oid, data, booth in args:
            assert ledger.order_cert_digest(oid, data, booth) == \
                digest("order-cert", oid, data, booth)
            assert ledger.commit_cert_digest(oid, data, booth) == \
                digest("commit-cert", oid, data, booth)
    assert len(calls) == 2 * len(args)
    crypto.clear_caches()
    ledger.order_cert_digest(*args[0])
    assert len(calls) == 2 * len(args) + 1
