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
            "5e51cd9ccd3a4a37f12faf89b02dbcdc3e47ca26f75175877dce5139784335c9",
        "ledger-1-2.jsonl":
            "22c2705b3cf36ad711019649aff4fc9a72b70e57165a39863fcc5e4bd9e24f44",
        "ledger-1-3.jsonl":
            "a97c41a721528ff80b74fd13a595012a00acdb14a714153720bd991a7b77f856",
        "ledger-1-4.jsonl":
            "20419223ca6aee0f867858d9f80d132d54d44524cd3283ed75a2bc96733055d1",
        "report.json":
            "b0764973bbe738caf3619c425a19f0c8964dc5b0c92c63ad4230f0618c4c0e67",
    },
    "forging_quorum_n4": {
        "ledger-1-1.jsonl":
            "a07f52cacc91de17439ddb1cf2219c4f7ede503d8c29a16c094a99aa4186e507",
        "ledger-1-2.jsonl":
            "17b4bd5b6bca9a7061d8256c57b79abb9c41fa7a50ff390b9b6ea87f4077a01e",
        "ledger-1-3.jsonl":
            "14f57221547888ed9a88896f66710d78fefb7953be5e8fa42f4fc19375614fcc",
        "ledger-1-4.jsonl":
            "7fa3e61a1e8a8f6d92b7b6ba4bd1bcdafb9d3f2964e933287395f11ac4133907",
        "report.json":
            "71de887c640f6db8b363bb05f7b15ffcdd88cf8a14fd5970a095dcfe5fb0f401",
    },
    "lossy_n7_byzantine": {
        "ledger-1-1.jsonl":
            "049cd6c1f2a3f12c5eebf3aa10f2620b8a8a2ce1fd9eee648b83b8eb67b680f3",
        "ledger-1-2.jsonl":
            "001a4a322dcd48c3b36510f5d5cd9b5640e64b241adfbbb378dc384de1046004",
        "ledger-1-3.jsonl":
            "a7e7d3e41d320042d6bdb81e1f08af23dcc37d990dee778a42d6e21ae92aebb1",
        "ledger-1-4.jsonl":
            "7954b0431534def18c0387c879c10f6b99583c3e64c6e186b6539fd5b46d5d60",
        "ledger-1-5.jsonl":
            "58aeae4ef7c5b1389e76ccbb39cebb05ce8d671a01c3199c5c763ffcc692d61a",
        "ledger-1-6.jsonl":
            "9575ab47eaa7cedc555bab393c0fe664d0819df7cfffceeafbf025c3028bada9",
        "ledger-1-7.jsonl":
            "e248857e7fb2fe0a192cbe353a3bbef996050b6907ed15d27115aaf41131ee4d",
        "report.json":
            "b51829045014ae1abcf3a2f37c2490a4b09fe1da34fee9979c06b5d2f526401c",
    },
    "pool8_gossip2": {
        "ledger-1-1.jsonl":
            "a973c66b5df384c2f397b48a1eb3aef67f2aa910162871ea3da9a8aa691e0b67",
        "ledger-1-2.jsonl":
            "4d28b11643bd9afeedd779d728b9ea18450c9fe10b626a6c826a955d61232cbe",
        "ledger-1-3.jsonl":
            "7e4dfab2dca6719b02bc9b6683754ba96cb6888c24bd06ff000194c91a24e298",
        "ledger-1-4.jsonl":
            "c66272f40c393745bcf812e794851a5ef6dcaa068484315e0f6390a8cd51a42c",
        "ledger-1-5.jsonl":
            "bc4172dd6f2d2216ccfd21d7cb3a9eb10867419028699fd63a3316c334335772",
        "ledger-1-6.jsonl":
            "450c95274e34ad6637c94f4d10b51c73bd4ea0736d7590c5603e61fca62446d4",
        "ledger-1-7.jsonl":
            "2407bd4f5d418be02f43aff2f540623c09fb6aab8f14cbb6025e1643e5901d8f",
        "report.json":
            "fab6ea0dd14cadeb2843bf8973e2592c50f42995421c46ac8553c0bad45ea4a1",
    },
    "saturated_b64": {
        "ledger-1-1.jsonl":
            "0873779b71918523fd1416fe957419a0372e71e2f602d9f0e148e97d43687388",
        "ledger-1-2.jsonl":
            "d9b41dec29bf9c3cf429251772776c2bf003906a1292f218e73b302de2aabfb0",
        "ledger-1-3.jsonl":
            "c4d3fc96351ddb92232473c5cb793784af6f800688cb256f3cc703a3b831ef8b",
        "ledger-1-4.jsonl":
            "8c23be8065248d25d3a5816070aea98b397db6b0258f87f54038bd42608f7a75",
        "report.json":
            "8abd21fdbadbfe6a0e3afc5bfab77d956134bcee2eb6bff96477bcf5f81ccb1e",
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
            "c430a54b08639741936e8cc39157cf0e88472e0a75833169eb272bdd06abad89",
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
            "91d20f52d2766abc9dddcb5fe39a155a14b6b61526277d04a8af15b91ec8f658",
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
    other branch of its split. They were once counted as bad_sig; the total
    is unchanged, and now all of them are wrong_digest."""
    counters = run(SPECS["equivocating_proposer_n4"]).report["counters"]["2"]
    assert counters.get("bad_sig", 0) + counters.get("wrong_digest", 0) == 473
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
        "d4eedf8f1cae6a955d273bef74e1eb0e8622ab898311033d3c9d6dcaa39f331e",
    "pivot_down_while_queued":
        "c75442238fc396f476f0b72eb333ad0ea65cd0860beeef6e9d2286f1fcab88f6",
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
    verifications. A partial set's key carries the keys the run's registry
    holds for its signers."""
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
            _, booth_hash, cert, payload, quorum = key
            fresh = check(profiles[booth_hash], quorum, cert, payload)
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
