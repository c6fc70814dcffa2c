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
            "e363ec8905cd47bbb8e0cc754442e5c1d9b49d564db5e3c927afbd5747bd7c9f",
        "ledger-1-2.jsonl":
            "ad3f7e1f112048dd04c7ced6d2400481977553e559357c52ca591ae51953f153",
        "ledger-1-3.jsonl":
            "d5c72a4f5c67a900460f9dbe25646a1f915233cc953a19377677bb93559637fe",
        "ledger-1-4.jsonl":
            "c967837300d6701422c9d537013b812894a3753abc2b9a9b1d381d258fe9ddd4",
        "report.json":
            "aa23584c53d5dd525c988a7abbd896b10e734cd2e7255c95759f00a49cc63200",
    },
    "forging_quorum_n4": {
        "ledger-1-1.jsonl":
            "9b4c904e660cc5a4e08c5c0ef0710f38b185f63de515e84a9cde8b79c2574c7b",
        "ledger-1-2.jsonl":
            "400bf56fb17838a154cd3078ae36d35c309369f8e9e5cd258b1db122a9875e5a",
        "ledger-1-3.jsonl":
            "43388aa107fe6e99bd34e25936f69d7200cab92f2c3af9df56c340b251d3f726",
        "ledger-1-4.jsonl":
            "91bd03992b863de578abe515aeab1452f3fef93313c065c28e4d7665357faa52",
        "report.json":
            "f26f5fddbd4da886d90ce0f1e5e660211a91da5c2837e0901915a1b7271f6af5",
    },
    "lossy_n7_byzantine": {
        "ledger-1-1.jsonl":
            "72a607c38d44f5e3330fe8e080f6b863843331caef1498e786ea2558d0e9d4cb",
        "ledger-1-2.jsonl":
            "0fb1b6f1e4f6b02963a522fa2b4568d4523c920c39f49d952243893f27aa12e4",
        "ledger-1-3.jsonl":
            "6a2284585315f8e1f40b4e2632e0a254df3ad3fdd09455cd244a482d1a12bb96",
        "ledger-1-4.jsonl":
            "94dd85db67a445635b0cab10b7c4b86a46deaf2af647512a0709422b7c6efb4b",
        "ledger-1-5.jsonl":
            "12478027de48356cdc8e54205fb549e978c0bc1200aedc9243314d7ef080d1fb",
        "ledger-1-6.jsonl":
            "a170d18e6de70155f6971ecf1483bb85aef5f7cc152f1bec8e26331d072afd80",
        "ledger-1-7.jsonl":
            "33a3de58df76072963ff9dc368c5b1ebce505fcbb6ef971dc588122e0265202b",
        "report.json":
            "7b06bf7a45a7c96e2dd20924d5f50768531056c9f772562639495fe5d74b9e5d",
    },
    "pool8_gossip2": {
        "ledger-1-1.jsonl":
            "d1bb48264d387ef4bd8b139b8ed503cc94142d75dafed59dcd3eaddf14043faf",
        "ledger-1-2.jsonl":
            "8fa1886f21e686bbf10cc7083649ccc9546dd741c5a11c7957f292c270656e09",
        "ledger-1-3.jsonl":
            "1a1fe2974b015a1e646cb53584964227f3c77292f4b0d8fc7be46330774ae979",
        "ledger-1-4.jsonl":
            "c0a7b6be48291023e0951ed348dd551af02807ffdda05603adafeeed8981fe36",
        "ledger-1-5.jsonl":
            "d63cdf873565fc9d48ba11472c6ddf65007b7655f31889bdc46340547f63b861",
        "ledger-1-6.jsonl":
            "f1f9d32acaafd1c765125c20ab7253a9b20f91d99eaa9a2caf42048d0b5b4733",
        "ledger-1-7.jsonl":
            "1bcccd86bc382131c66f9647824d4a95b1547d265711eb010c08d050fe0bb989",
        "report.json":
            "8ac8afd0e57e15143ad763dbc57d3b0fb53a1d7f8f557cd9be8159a1aed94a8f",
    },
    "saturated_b64": {
        "ledger-1-1.jsonl":
            "d36afd50bc86f835e2c533ee5f942b7862f3b84b6cc9983a35cff2e33618b46c",
        "ledger-1-2.jsonl":
            "2a2336e50017efc404a0c3c0ceeda11dd53a6c8d0c3c86ce08c0b94c7f010b3d",
        "ledger-1-3.jsonl":
            "1532a54f8f0e8a1221d49e7e128cf594bc890c17c868a6e5fcbcc558256dfd87",
        "ledger-1-4.jsonl":
            "ff40238aac10dcd73a228717df5a64665455c52fed47333b369b0a0134d0b618",
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
    """Every certificate verdict, partial-set verdict, certificate digest
    and signer-set digest the run memo holds at the end of the run equals
    the same check made with the memo emptied, so with real Ed25519
    verifications. A certificate's key carries the keys the run's registry
    holds for the booth's members, and a partial set's key those of its
    signers."""
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
            if key[0] in ("cert", "partial-set", "order-cert", "commit-cert",
                          "signer-set")}
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
        elif key[0] == "partial-set":
            _, partials, payload, required, keys = key
            assert keys == tuple(registry.verify_key(p.signer) for p in partials)
            fresh = crypto.verify_partial_set(partials, payload, required,
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
