"""Golden outputs: the sha256 of `report.json` and of every ledger export for
seven fixed seeded runs, and of the network trace of two traced runs.

A change that only restructures or speeds up the code must leave every one
of these bytes unchanged. If a digest moves, behaviour moved: say so and
re-pin on purpose, never to get a pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from vguard import crypto, messages, node
from vguard.booths import BoothProfile
from vguard.codec import digest
from vguard.crypto import KeyService
from vguard.harness import RunSpec, run, write_artifacts
from vguard.netsim import ChurnEvent, Network, SimConfig

SPECS = {
    "clean_n4": RunSpec(booth_size=4, duration_ms=300.0, grace_ms=300.0,
                        rate_per_s=100.0, seed=21),
    "lossy_n7_byzantine": RunSpec(
        booth_size=7, duration_ms=300.0, grace_ms=500.0, rate_per_s=60.0,
        seed=22, byzantine=((5, ("silent",)),),
        sim=SimConfig(seed=0, drop_rate=0.05, dup_rate=0.02, gst_ms=150.0)),
    "pool8_gossip2": RunSpec(booth_size=4, pool=8, lambda0=2,
                             duration_ms=300.0, grace_ms=300.0,
                             rate_per_s=100.0, seed=23),
    "saturated_b64": RunSpec(
        booth_size=4, batch_size=64, rate_per_s=None, duration_ms=150.0,
        payload_bytes=65, seed=24,
        sim=SimConfig(seed=0, delay_mean_ms=1.0, delay_sd_ms=0.0)),
    # stalled proposers: every batch is forged, so nothing is ordered, and
    # the report pins how each forgery is rejected
    "equivocating_proposer_n4": RunSpec(
        booth_size=4, duration_ms=300.0, grace_ms=500.0, rate_per_s=60.0,
        seed=25, byzantine=((2, ("equivocate_ordering_id",)),),
        sim=SimConfig(seed=0, drop_rate=0.03, dup_rate=0.02, gst_ms=150.0)),
    "tampering_proposer_n7": RunSpec(
        booth_size=7, duration_ms=300.0, grace_ms=500.0, rate_per_s=60.0,
        seed=26, byzantine=((2, ("tamper_payload",)),),
        sim=SimConfig(seed=0, drop_rate=0.03, dup_rate=0.02, gst_ms=150.0)),
    # the proposer (node 2) swaps the last quorum member of every order and
    # commit for a node outside the booth: the only spec whose report pins
    # the quorum-shape rejections
    "forging_quorum_n4": RunSpec(
        booth_size=4, duration_ms=300.0, grace_ms=500.0, rate_per_s=60.0,
        seed=27, byzantine=((2, ("forge_quorum",)),),
        sim=SimConfig(seed=0, drop_rate=0.03, dup_rate=0.02, gst_ms=150.0)),
}

GOLDEN = {
    "clean_n4": {
        "ledger-1-1.jsonl":
            "90066c1cd9f39c6c515ef9ba29d852f4d7919c9dc40fec9abc1dafb4a3981374",
        "ledger-1-2.jsonl":
            "96d9d935c2a5d54ac1381ff938d284a3509561e39baa2d24342ec79f544a810d",
        "ledger-1-3.jsonl":
            "d5ec6962810bb3e9ace01d5230eb908ba36e1ef2fb9c0d1e12cc9eff241d70fe",
        "ledger-1-4.jsonl":
            "778f0a917b0f725dc8d04ed8d47d70dd5ba392a16cfd40d1aa1c33901532a875",
        "report.json":
            "aa23584c53d5dd525c988a7abbd896b10e734cd2e7255c95759f00a49cc63200",
    },
    "forging_quorum_n4": {
        "ledger-1-1.jsonl":
            "9b4c904e660cc5a4e08c5c0ef0710f38b185f63de515e84a9cde8b79c2574c7b",
        "ledger-1-2.jsonl":
            "c461f39fb38d79775156e48c27eb9867eec8d7340cc23d5a253b93438192d0cb",
        "ledger-1-3.jsonl":
            "43388aa107fe6e99bd34e25936f69d7200cab92f2c3af9df56c340b251d3f726",
        "ledger-1-4.jsonl":
            "91bd03992b863de578abe515aeab1452f3fef93313c065c28e4d7665357faa52",
        "report.json":
            "0b7ce134bd09429bfee3fd3188b3306a7d52fb521f9992795aa9eb7f00cc71ca",
    },
    "lossy_n7_byzantine": {
        "ledger-1-1.jsonl":
            "08edcd5c1d740a60e7f9caab67fb1cee567a7dd8d0c1e88c9c559f6427cb7455",
        "ledger-1-2.jsonl":
            "a32559a24027983bf7b5f69e0b07cdef09e83d7f2e43885af5cc80eba645d9d6",
        "ledger-1-3.jsonl":
            "f4af7a9d4a506707fa09c0e33806ede13baf13968099065dad8afb9fd45ecad5",
        "ledger-1-4.jsonl":
            "aebc236a3feb6d75ed00d17d4b2ed91ec5c896b6ec1edb6b49f5e6e060c119f3",
        "ledger-1-5.jsonl":
            "0c609abb79ee61587ec5bc4248aa526a196f60c5345471d3bd5915bdda7a79b7",
        "ledger-1-6.jsonl":
            "7359d266072b38b958134553e28be0223782f212f92fa3c3f70715c617a958a9",
        "ledger-1-7.jsonl":
            "fe92d503dd6d55486afbef25f69fc39bd341b5c8c96a44a9b2798cdb7945e557",
        "report.json":
            "f5896002801ef09dca63150738c99726b6aeb862d0898f86ff49c46b074c49b1",
    },
    "pool8_gossip2": {
        "ledger-1-1.jsonl":
            "e222ee8611490dcf5fdea8d712c560c514e0572acb263682355f490de0e7ed98",
        "ledger-1-2.jsonl":
            "0b0514afe47ffcf2992b28c0b2d642d0679c05212cfc89eb1f88c335e80de09b",
        "ledger-1-3.jsonl":
            "0f450c2d96f47ea28cec127eed497da17bfa3a4e2c16c937c473fa9a5623ddb3",
        "ledger-1-4.jsonl":
            "2c5037bdb71411599b071607265eb717268815f62d9408bd217823ec412120c6",
        "ledger-1-6.jsonl":
            "14d00f39de2b8cb3f3ffaf5084286bbfa85f35e01257911b4fd5a962b96b7cc1",
        "ledger-1-7.jsonl":
            "d14e04e461ae71e70a41f5a48a15555c0257ed6523bbb8fbcb0db5c89740016a",
        "report.json":
            "cac37815df1f34cf5136fa19d9eff922aad6316b6ddbab5d0b321d52c3e5ada3",
    },
    "saturated_b64": {
        "ledger-1-1.jsonl":
            "d3b45183bc5eeaf0dd01b7e4cd43afe78182276f7ccd260318fc4b89435899b7",
        "ledger-1-2.jsonl":
            "0717a44a3335810170f97a9ac0686199540570dee1ec07307e1b051f79937b4d",
        "ledger-1-3.jsonl":
            "5bb5ccb93229d8d79b82e2be46f4e9d229ee7eda9ad7b9a86c2978064eaeed0e",
        "ledger-1-4.jsonl":
            "4cd6ebc2b78c7b73bd85f7432447a4756022f4c2638e92ce68fa0e9fcd55b600",
        "report.json":
            "9d6923a706fc0906c07428dc24feb5b867c634a3457dcab5f44cd023173536aa",
    },
    "equivocating_proposer_n4": {
        "ledger-1-1.jsonl":
            "ba32376c0858e40621fa3086d2ea1693f44ffc37c807a73c6d4c49e416436bc0",
        "ledger-1-2.jsonl":
            "0a047fd868a3be8956d05222b4764ea6f55083efce27b8ea1346a7d6e4990b96",
        "ledger-1-3.jsonl":
            "a8dbb18197b47343d22ad755b81bc01d15ee3611682ac17e5539279154e6807f",
        "ledger-1-4.jsonl":
            "68b50a364f670441e33ad22113721b46eac868899eec8e00f73fb905ded0f3d7",
        # re-pinned when replies endorsing another digest moved from
        # bad_sig to wrong_digest; the ledgers did not move
        "report.json":
            "3184b8a1d0abb918ea0cde60caa0ab30cf289889462e9f86c9fb78b7e3be8d0b",
    },
    "tampering_proposer_n7": {
        "ledger-1-1.jsonl":
            "71127788829a10d892f931fec8f401ebb9935a37d36f2176cc8bd373e823e584",
        "ledger-1-2.jsonl":
            "323c898012bf30b9b614bd477186c67287058e1053baa9cbfb9fe58df66e4533",
        "ledger-1-3.jsonl":
            "6179addf3194efcae0795849a5beab493fe19519531bb1b47511a4e2ddaf1532",
        "ledger-1-4.jsonl":
            "371934e900be25762b6467caf1d91d791140246c7a81bb8febb0ceeb47a327cc",
        "ledger-1-5.jsonl":
            "657050acc500a1e1e2d4a80859f2233095709602ef6b455c730b9a8940125399",
        "ledger-1-6.jsonl":
            "1283836b1f785b39e0151ef62696dd66dfb4fa7d2e80a4af9f01f4c2304b1862",
        "ledger-1-7.jsonl":
            "e4ca64ba000afdf98f38df978e54ebd2d4edc70270af90324eecb34ffe459bf1",
        "report.json":
            "21eba7cd66c4f61c82b9a4560af715453800999a9b82ffc4d62f0d953206a1b9",
    },
}


def artifact_digests(spec: RunSpec, outdir: Path) -> dict[str, str]:
    """sha256 of report.json and of each ledger export of one run."""
    paths = write_artifacts(run(spec), outdir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
            if p.name == "report.json" or p.name.startswith("ledger-")}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_artifacts_are_byte_identical(name, tmp_path):
    assert artifact_digests(SPECS[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["clean_n4", "equivocating_proposer_n4"])
def test_fallback_signer_reproduces_golden_artifacts(name, tmp_path,
                                                     monkeypatch,
                                                     cryptography_signs):
    """With libsodium treated as absent, every signature comes from
    `cryptography` and the pinned bytes do not move."""
    monkeypatch.setattr(crypto, "_sodium_sign", None)
    assert artifact_digests(SPECS[name], tmp_path) == GOLDEN[name]
    assert cryptography_signs


def test_equivocation_split_is_wrong_digest_not_bad_sig():
    """The equivocating proposer (node 2) gets replies that endorse the
    other branch of its split. They were once counted as bad_sig; now all
    of them are wrong_digest, as many as the pinned report counts."""
    counters = run(SPECS["equivocating_proposer_n4"]).report["counters"]["2"]
    assert counters.get("bad_sig", 0) + counters.get("wrong_digest", 0) == 471
    assert counters.get("bad_sig", 0) == 0


# Send events are stamped with the start time of the handler that sent them,
# so these digests pin the order in which each node's CPU runs invocations.
# `saturated_b64` keeps the CPU queues deep; in `pivot_down_while_queued`
# the pivot goes down while invocations wait behind its busy CPU.
TRACED = {
    "saturated_b64": SPECS["saturated_b64"],
    "pivot_down_while_queued": replace(
        SPECS["saturated_b64"],
        churn=(ChurnEvent(at_ms=60.0, node_id=2, up=False),
               ChurnEvent(at_ms=110.0, node_id=2, up=True))),
}

GOLDEN_TRACE = {
    "saturated_b64":
        "3c2042ce0b8945b6f55284ee19790a074495d47d30607e1be319a79d20e66851",
    "pivot_down_while_queued":
        "e04e52a56cad7b77b129cfe9ae231b3d78951a0eb1cd8c87cb3f659a10f8dcc1",
}


def trace_digest(spec: RunSpec) -> str:
    result = run(replace(spec, sim=replace(spec.sim, trace=True)))
    dump = json.dumps(result.net.trace, sort_keys=True)
    return hashlib.sha256(dump.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_golden_traces_are_byte_identical(name):
    assert trace_digest(TRACED[name]) == GOLDEN_TRACE[name]


def test_pivot_down_spec_drops_invocations_waiting_behind_its_cpu(
        monkeypatch):
    """The churn trace pins what it claims to: when the pivot goes down,
    invocations are waiting behind its busy CPU, and they never run."""
    invoke = Network._invoke
    waited, ran = {}, set()

    def probe(net, node_id, fn, preload_ms=0.0):
        if net._busy.get(node_id, 0.0) > net.now:
            waited.setdefault(fn, node_id)
        elif net._up.get(node_id, False):
            ran.add(fn)
        return invoke(net, node_id, fn, preload_ms)

    monkeypatch.setattr(Network, "_invoke", probe)
    run(TRACED["pivot_down_while_queued"])
    dropped = [node for fn, node in waited.items() if fn not in ran]
    assert dropped and set(dropped) == {2}


def _really_verifies(key: bytes, payload: bytes, sig: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(sig, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


@pytest.mark.parametrize("name", sorted(SPECS))
def test_memo_answers_what_a_real_verify_would(name, monkeypatch,
                                               real_checks):
    """Signing records its triples as valid, so no golden run makes a real
    Ed25519 check: honest signatures were all made in this process, and
    every forgery in these specs fails a digest, quorum or signer check
    before its signature is looked at. Each memo entry left at the end of
    the run, whether it came from signing or from a check, must be what a
    fresh real verify returns."""
    snapshots = []
    clear = crypto.clear_caches

    def snapshot_then_clear():
        snapshots.append(dict(crypto._memo))
        clear()

    monkeypatch.setattr(crypto, "clear_caches", snapshot_then_clear)
    run(SPECS[name])
    assert real_checks == []
    memo = {key[1:]: ok for key, ok in snapshots[-1].items()  # at run end
            if key[0] == "sig"}
    assert memo
    for (key, payload, sig), ok in memo.items():
        assert ok == _really_verifies(key, payload, sig)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verdict_memo_answers_what_a_fresh_check_would(name, monkeypatch):
    """Every certificate verdict, certificate digest and signer-set digest
    the run memo holds at the end of the run equals the same check made
    with the memo emptied, so with real Ed25519 verifications. A
    certificate's key carries the keys the run's registry holds for the
    booth's members."""
    snapshots, profiles = [], {}
    clear, check = crypto.clear_caches, BoothProfile.check_certified

    def snapshot_then_clear():
        snapshots.append(dict(crypto._memo))
        clear()

    def recording(profile, *args, **kwargs):
        profiles[profile.booth_hash] = profile
        return check(profile, *args, **kwargs)

    monkeypatch.setattr(crypto, "clear_caches", snapshot_then_clear)
    monkeypatch.setattr(BoothProfile, "check_certified", recording)
    result = run(SPECS[name])
    memo = {key: verdict for key, verdict in snapshots[-1].items()  # at run end
            if key[0] in ("cert", "order-cert", "commit-cert", "signer-set")}
    assert memo
    registry = KeyService()
    for ident in result.identities:
        registry.register(ident)
    for key, verdict in memo.items():
        clear()
        if key[0] == "cert":
            _, booth_hash, cert, payload, quorum, keys = key
            assert keys == registry.keys_of(profiles[booth_hash].member_ids)
            fresh = check(profiles[booth_hash], quorum, cert, payload,
                          registry)
        else:
            fresh = digest(*key)
        assert fresh == verdict, key


@pytest.mark.parametrize("name", sorted(SPECS))
def test_decoded_messages_equal_a_fresh_parse(name, monkeypatch):
    """What a node gets from `decode_message` for bytes encoded in this
    process is the sender's own object. For every payload delivered in the
    run, byzantine forgeries included, a fresh parse of the bytes must equal
    that object and print the same, so sharing it changes nothing."""
    decode = node.decode_message
    checked = set()

    def decode_and_compare(raw):
        msg = decode(raw)
        if raw not in checked:
            fresh = messages._parse(raw)
            assert fresh == msg and repr(fresh) == repr(msg)
            checked.add(raw)
        return msg

    monkeypatch.setattr(node, "decode_message", decode_and_compare)
    run(SPECS[name])
    assert checked
