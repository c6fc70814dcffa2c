"""Identity signatures, booth key material, and aggregate certificates."""

import itertools

import numpy as np
import pytest

from vguard import crypto
from vguard.codec import digest, pack
from vguard.crypto import (
    aggregate,
    make_identity,
    make_partial,
    setup_booth_keys,
    signer_set_digest,
    verify_aggregate,
    verify_partial,
    verify_partial_set,
    verify_raw,
    Role,
)
from vguard.errors import (
    InsufficientPartials,
    InvalidPartial,
    InvalidThreshold,
    MixedDigests,
    UnknownSigner,
)

from conftest import make_pool, make_booth

# Aggregates are certified multisigs, not a constant-size threshold scheme:
# the accepted size envelope is threshold * 64-byte signatures plus the
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
    individual, booth = partial.components()
    for pos in range(len(individual)):
        forged = bytearray(individual)
        forged[pos] ^= 1 << (pos % 8)
        bad = type(partial)(partial.signer, payload, pack(bytes(forged), booth))
        assert not verify_partial(bad, ident.verify_key)


def test_partial_rejected_under_wrong_key():
    _, key = make_identity(5, Role.VEHICLE, _rng(1).bytes(32))
    other, _ = make_identity(6, Role.VEHICLE, _rng(2).bytes(32))
    payload = digest("t", b"x")
    partial = make_partial(key, payload)
    assert not verify_partial(partial, other.verify_key)


def test_threshold_bounds_rejected():
    with pytest.raises(InvalidThreshold):
        setup_booth_keys([1, 2, 3, 4], 5, _rng())       # above booth size
    with pytest.raises(InvalidThreshold):
        setup_booth_keys([1, 2, 3, 4], 1, _rng())       # below 2f
    setup_booth_keys([1, 2, 3, 4], 2, _rng())           # t = 2f is the floor


def test_aggregate_two_of_four_verifies(pool4, booth4):
    booth, material = booth4
    payload = digest("t", b"batch")
    partials = [
        make_partial(pool4.keys[m], payload, pool4.registry.booth_share(booth.booth_hash, m))
        for m in (2, 3)
    ]
    agg = aggregate(partials, material)
    assert verify_aggregate(agg, payload, booth.directory_map, booth.threshold)
    assert agg.signers(booth.member_ids) == [2, 3]
    assert agg.signer_set_digest == signer_set_digest([2, 3])


def test_every_subthreshold_subset_fails(pool4, booth4):
    # Oracle: enumerate every subset smaller than t; each must refuse to
    # aggregate, and a certificate truncated to it must refuse to verify.
    booth, material = booth4
    payload = digest("t", b"batch")
    all_partials = {
        m: make_partial(pool4.keys[m], payload,
                        pool4.registry.booth_share(booth.booth_hash, m))
        for m in booth.member_ids
    }
    t = material.threshold
    for size in range(t):
        for subset in itertools.combinations(booth.member_ids, size):
            with pytest.raises(InsufficientPartials):
                aggregate([all_partials[m] for m in subset], material)
    # duplicates of one signer never count twice
    with pytest.raises(InsufficientPartials):
        aggregate([all_partials[2], all_partials[2]], material)


def test_aggregate_rejects_foreign_and_mixed(pool4, booth4):
    booth, material = booth4
    pool_b = make_pool([1, 2, 3, 4, 5, 6], seed=11)
    booth_b, material_b = make_booth(pool_b, [1, 2, 5, 6], proposer_id=1, pivot_id=2)
    payload = digest("t", b"batch")
    other_payload = digest("t", b"other")
    good = make_partial(pool4.keys[2], payload,
                        pool4.registry.booth_share(booth.booth_hash, 2))
    mixed = make_partial(pool4.keys[3], other_payload,
                         pool4.registry.booth_share(booth.booth_hash, 3))
    with pytest.raises(MixedDigests):
        aggregate([good, mixed], material)
    foreign = make_partial(pool_b.keys[5], payload,
                           pool_b.registry.booth_share(booth_b.booth_hash, 5))
    with pytest.raises(UnknownSigner):
        aggregate([good, foreign], material)


def test_partial_without_share_cannot_aggregate(pool4, booth4):
    booth, material = booth4
    payload = digest("t", b"batch")
    no_share = make_partial(pool4.keys[2], payload, booth_key=None)
    with_share = make_partial(pool4.keys[3], payload,
                              pool4.registry.booth_share(booth.booth_hash, 3))
    with pytest.raises(InvalidPartial):
        aggregate([no_share, with_share], material)


def test_cross_booth_verification_fails(pool4):
    # Same members, two independently dealt booths: a certificate from one
    # must not verify against the other's directory.
    booth_a, material_a = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=1)
    booth_b, _ = make_booth(pool4, [1, 2, 3, 4], 1, 2, created_at_us=2)
    assert booth_a.booth_hash != booth_b.booth_hash
    payload = digest("t", b"batch")
    partials = [
        make_partial(pool4.keys[m], payload,
                     pool4.registry.booth_share(booth_a.booth_hash, m))
        for m in (2, 3)
    ]
    agg = aggregate(partials, material_a)
    assert verify_aggregate(agg, payload, booth_a.directory_map, booth_a.threshold)
    assert not verify_aggregate(agg, payload, booth_b.directory_map, booth_b.threshold)


def test_aggregate_size_envelope_small_and_large():
    # Relaxed size contract: multisig certificates grow with t but stay
    # within AGGREGATE_SIZE_BOUND for both a minimal and a large booth.
    for n, seed in ((4, 3), (61, 4)):
        rng = _rng(seed)
        members = list(range(1, n + 1))
        pool = make_pool(members, seed=seed)
        f = (n - 1) // 3
        t = 2 * f
        material = setup_booth_keys(members, t, rng)
        payload = digest("t", b"batch")
        keyed = []
        for m in members[:t]:
            import cryptography.hazmat.primitives.asymmetric.ed25519 as ed
            booth_key = ed.Ed25519PrivateKey.from_private_bytes(material.share_seeds[m])
            keyed.append(make_partial(pool.keys[m], payload, booth_key))
        agg = aggregate(keyed, material)
        assert len(agg.sig_bytes) <= AGGREGATE_SIZE_BOUND(t, n)
        assert verify_aggregate(agg, payload, dict(material.directory), t)


def test_verify_partial_set_counts_distinct_valid_signers(pool4, booth4):
    booth, _ = booth4
    payload = digest("t", b"batch")
    partials = [make_partial(pool4.keys[m], payload) for m in (1, 2, 3)]
    assert verify_partial_set(partials, payload, required=3, registry=pool4.registry)
    # replays of one signer do not add weight
    assert not verify_partial_set(
        [partials[0], partials[0], partials[1]], payload,
        required=3, registry=pool4.registry)
    # a corrupted third signature drops the count below the requirement
    bad = type(partials[2])(partials[2].signer, payload, b"\x00" * len(partials[2].sig_bytes))
    assert not verify_partial_set(
        [partials[0], partials[1], bad], payload, required=3, registry=pool4.registry)


def test_setup_is_deterministic_per_seed():
    a = setup_booth_keys([1, 2, 3, 4], 2, _rng(42))
    b = setup_booth_keys([1, 2, 3, 4], 2, _rng(42))
    assert a.directory == b.directory
    assert a.share_seeds == b.share_seeds
    c = setup_booth_keys([1, 2, 3, 4], 2, _rng(43))
    assert c.directory != a.directory


def test_tampered_aggregate_rejected(pool4, booth4):
    booth, material = booth4
    payload = digest("t", b"batch")
    partials = [
        make_partial(pool4.keys[m], payload,
                     pool4.registry.booth_share(booth.booth_hash, m))
        for m in (2, 3)
    ]
    agg = aggregate(partials, material)
    # flip one signature bit
    raw = bytearray(agg.sig_bytes)
    raw[-1] ^= 1
    bad = type(agg)(agg.threshold, bytes(raw), agg.signer_set_digest)
    assert not verify_aggregate(bad, payload, booth.directory_map, booth.threshold)
    # claim a different signer set than the bitmap carries
    lied = type(agg)(agg.threshold, agg.sig_bytes, signer_set_digest([2, 4]))
    assert not verify_aggregate(lied, payload, booth.directory_map, booth.threshold)


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
        assert len(crypto._verified) <= 4
    crypto.clear_caches()
    assert not crypto._verified and not crypto._pub_cache


def test_signer_set_digest_is_memoised_per_set_until_caches_clear(
        monkeypatch):
    calls = []

    def counted(label, *fields):
        calls.append(fields)
        return digest(label, *fields)

    monkeypatch.setattr(crypto, "digest", counted)
    crypto.clear_caches()
    want = digest("signer-set", [1, 2, 4])
    for signers in ([4, 1, 2], (1, 2, 4), {2: b"", 4: b"", 1: b""}):
        assert signer_set_digest(signers) == want
    assert signer_set_digest([1, 2]) == digest("signer-set", [1, 2])
    assert calls == [([1, 2, 4],), ([1, 2],)]
    crypto.clear_caches()
    assert signer_set_digest([2, 1, 4]) == want
    assert len(calls) == 3


def test_signing_records_its_triple_and_needs_no_real_check(real_checks):
    ident, key = make_identity(5, Role.VEHICLE, _rng(6).bytes(32))
    payload = digest("t", b"signed here")
    sig = key.sign(payload)
    assert crypto._verified == {(ident.verify_key, payload, sig): True}
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
            assert triple not in crypto._verified
            before = len(real_checks)
            assert not verify_raw(*triple)
            assert crypto._verified[triple] is False
            assert len(real_checks) - before in checks
    assert verify_raw(vk, payload, sig)


def test_foreign_and_garbage_signatures_get_real_checks(real_checks):
    ident, key = make_identity(5, Role.VEHICLE, _rng(8).bytes(32))
    other, other_key = make_identity(6, Role.VEHICLE, _rng(9).bytes(32))
    payload = digest("t", b"foreign")
    # made by a raw key, so nothing was recorded: a real check accepts it
    raw = crypto.Ed25519PrivateKey.from_private_bytes(_rng(8).bytes(32))
    foreign = raw.sign(payload)
    assert crypto._verified == {}
    assert verify_raw(ident.verify_key, payload, foreign)
    assert len(real_checks) == 1
    # another signer's signature, and garbage of the right length
    assert not verify_raw(ident.verify_key, payload, other_key.sign(payload))
    assert not verify_raw(ident.verify_key, payload, b"\x00" * 64)
    assert not verify_raw(other.verify_key, payload, foreign)
    assert len(real_checks) == 4
    assert key.sign(payload) == foreign     # deterministic: the same bytes


def test_booth_share_verifies_under_the_directory(pool4, booth4):
    booth, material = booth4
    for member in material.member_ids:
        share = pool4.registry.booth_share(booth.booth_hash, member)
        assert share.verify_key == material.directory[member]
        assert share is pool4.registry.booth_share(booth.booth_hash, member)
    outsider = max(pool4.keys) + 1
    assert pool4.registry.booth_share(booth.booth_hash, outsider) is None


def test_memo_stays_bounded_while_signing_records(monkeypatch, real_checks):
    monkeypatch.setattr(crypto, "MEMO_SIZE", 4)
    ident, key = make_identity(5, Role.VEHICLE, _rng(10).bytes(32))
    payloads = [digest("t", i) for i in range(10)]
    sigs = []
    for payload in payloads:
        sigs.append(key.sign(payload))
        assert len(crypto._verified) <= 4
    # the last sign is always remembered; evicted ones get a real check
    assert verify_raw(ident.verify_key, payloads[-1], sigs[-1])
    assert real_checks == []
    assert verify_raw(ident.verify_key, payloads[0], sigs[0])
    assert len(real_checks) == 1
    assert len(crypto._verified) <= 4
