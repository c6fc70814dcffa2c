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
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey, Ed25519PublicKey)

from vguard import crypto, messages, node
from vguard.booths import BoothProfile
from vguard.codec import digest
from vguard.crypto import KeyService
from vguard.harness import RunSpec, run, write_artifacts
from vguard.netsim import ChurnEvent, Network, SimConfig

from conftest import CountingMeter

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
    # the proposer (node 2) moves the bit of the last non-pivot signer of
    # every order and commit certificate to its own: the only spec whose
    # report pins the quorum-shape rejections
    "forging_quorum_n4": RunSpec(
        booth_size=4, duration_ms=300.0, grace_ms=500.0, rate_per_s=60.0,
        seed=27, byzantine=((2, ("forge_quorum",)),),
        sim=SimConfig(seed=0, drop_rate=0.03, dup_rate=0.02, gst_ms=150.0)),
}

GOLDEN = {
    "clean_n4": {
        "ledger-1-1.jsonl":
            "85a7073deb4aea9362078de481ffb8d32fe69be1418e9ebc3b4098473370b266",
        "ledger-1-2.jsonl":
            "95a75093a9890c92f5ce0ce9a53cd4fbac97dda3819e331da81f73bf6158e23c",
        "ledger-1-3.jsonl":
            "136e135880d6062cbc896764871daf3a57a77f544ec06fab4a47b4b9a9e24321",
        "ledger-1-4.jsonl":
            "113e78c51b5c49a3cfd302c100ceba64316af3e1735adf6bd96842512f8778d4",
        "report.json":
            "b674f8237d0ba7a4cd5697f50ba4ac10f0a8b9f8aa7e70fc3be4b5377260c2f7",
    },
    "forging_quorum_n4": {
        "ledger-1-1.jsonl":
            "7697e92884a48a0db4bddcae5899db1989ae75a91703ec9bec6433cf17bbe473",
        "ledger-1-2.jsonl":
            "a66c5bc50301fcfab3d7f3b50c1e4725e60a6da2a6ddcddbc19b99995371cedf",
        "ledger-1-3.jsonl":
            "f447999d00db54f58296bad547b32b67097b510c1df7bff8145ff7127d9c3af0",
        "ledger-1-4.jsonl":
            "77018b1bab044c858b19de15fa91db9419093ca085c640b154b949606553d9f4",
        "report.json":
            "f712dd864d12395dc41770e88bb47b5c8ec115c3934f0c3353e5d8b0648419ac",
    },
    "lossy_n7_byzantine": {
        "ledger-1-1.jsonl":
            "dfb2080ccf041d21db444381e531e5daf14c83b15e89fc94063e579c83c319ff",
        "ledger-1-2.jsonl":
            "f73c933410a6a675bd319c239e88968e505e2ae3bcbd908999cb5fd72fa08699",
        "ledger-1-3.jsonl":
            "6456425435bff3d09f7224d0d4e6637c2754edda5b3a9b9c73cbfda4b919f605",
        "ledger-1-4.jsonl":
            "661710e810f9d6d22c659eec34f6d6221aac621f62aa197ba776f0f056f7e14d",
        "ledger-1-5.jsonl":
            "a330208b94f7d65a4570a69a1a349b97b6f5585403f0b5321b5e0bea074e4ffc",
        "ledger-1-6.jsonl":
            "102bf6185849c4fa38dd9bba454da91e40a0e1f12ccb53474a2426a19faff035",
        "ledger-1-7.jsonl":
            "3e91758db7f4f1a55678f5fbe2a02508ab83081fa45625ea2d4b546139c6dacc",
        "report.json":
            "93e6ae8eaafd083ac0132ebc41c82afa2cf2f1231e6efdcd75cccc5b26e68a47",
    },
    "pool8_gossip2": {
        "ledger-1-1.jsonl":
            "10766168b8c3a8d6cf0706cacd32a972e0ebc087edcc40ea1c64c2f027014cdf",
        "ledger-1-2.jsonl":
            "2679dc9202e43509ce51315f3e2e403a6ce73a33e752540639b365159d2cf5b1",
        "ledger-1-3.jsonl":
            "120bc558d54ecbf0ca35c3af6a6699dcf5fbb0031484239672142860e58ca9cf",
        "ledger-1-4.jsonl":
            "5ebc08f80b72c6eac088129712d9f884c35ff893f6187b00f1854d1b8332fab1",
        "ledger-1-6.jsonl":
            "edf3dadaf4bcf33b4b1de918d57a2678630503bbe730adc9f0af3b9c5e9c947e",
        "ledger-1-7.jsonl":
            "e44bc24c03e3b87d2619cf7b1512cbbf209d4056a1a78b50b3ae445531235f5b",
        "report.json":
            "f369389ce58eec52557f8f2071d5cdf518e4d11648f9f358d505530b99a9aaa8",
    },
    "saturated_b64": {
        "ledger-1-1.jsonl":
            "85776ab20857da672c127742495f65a98c66040096eeb55ea48586a6492686cf",
        "ledger-1-2.jsonl":
            "b324db50e9058598b49f036e9c29fa530d19591b156e1984da4e36ea7bf32a0a",
        "ledger-1-3.jsonl":
            "f802c32fdc4dd100e6bfbd967bef6c337574f321f9857a7f102a8fbe1f2b0c69",
        "ledger-1-4.jsonl":
            "b338a488684d8d8e822a28ffc59af92dcb830de56b2ea56c3be83ce159e342aa",
        "report.json":
            "3c95db1fae49bb2859bcb75156b78c0092651367badf310f196fe0e9e1ad095e",
    },
    "equivocating_proposer_n4": {
        "ledger-1-1.jsonl":
            "789d27c90e782600752509ca04736233cee7297146fe7a52abb5bf0a2f9a9812",
        "ledger-1-2.jsonl":
            "8c9e5b064f8082a280695491121617f2c1feb70187867eca80e925808de4014e",
        "ledger-1-3.jsonl":
            "908e2c0f1d3d0c4f3b6df6630404544b39c7f0fec635f301de34e6c2e4cb623b",
        "ledger-1-4.jsonl":
            "a998758b820a9b1c81683f904863e0e937e0ea27031d5f86535a11cf684c713c",
        # re-pinned when replies endorsing another digest moved from
        # bad_sig to wrong_digest; the ledgers did not move
        "report.json":
            "3184b8a1d0abb918ea0cde60caa0ab30cf289889462e9f86c9fb78b7e3be8d0b",
    },
    "tampering_proposer_n7": {
        "ledger-1-1.jsonl":
            "0b2470359e3e1fc78e0f8a8109c3e6b10888efdf352520f34d7fe95391b8a92f",
        "ledger-1-2.jsonl":
            "f62fcd8ee037e5294d88ce212345acb27f7b54f1f919ad9f9c54fcbf7cf9befd",
        "ledger-1-3.jsonl":
            "bbad6974eef4208d2c8713c59a6639da9921abe45d7f349827efd119bf8576ed",
        "ledger-1-4.jsonl":
            "24793c47bf5c474120b1fd6a0b4354a9fabe367e6174fd503ace4e72fa49e5df",
        "ledger-1-5.jsonl":
            "71ab391da79d8cc4b37e242f220b3fd54b98db26a74c7b5781cca4e870fa8121",
        "ledger-1-6.jsonl":
            "21f234121dfb31a99b05e75851348f7148296f9f5f3c2486667a2c963ab7b4d5",
        "ledger-1-7.jsonl":
            "f5aacf2c6e4290cbda03ed041859334ffbba95672060abbc95e15103d26cdbb8",
        "report.json":
            "21eba7cd66c4f61c82b9a4560af715453800999a9b82ffc4d62f0d953206a1b9",
    },
}


def size_blind(spec: RunSpec) -> RunSpec:
    """The spec with no modeled cost that depends on a message's size: no
    bandwidth term and no per-byte wire cost."""
    cost = replace(spec.sim.cost, wire_byte_ms=0.0, wire_byte_quad_ms=0.0)
    return replace(spec, sim=replace(spec.sim, bandwidth_bytes_per_ms=None,
                                     cost=cost))


def size_blind_digests(spec: RunSpec, outdir: Path) -> dict[str, str]:
    """sha256 of the size-blind run's report.json and of its committed
    (instance, node, [(window, tx hash)]) sequences."""
    result = run(size_blind(spec))
    report = outdir / "report.json"
    write_artifacts(result, outdir)
    chains = [[instance, node_id,
               [[ts, ledger.window(ts).record.tx_hash.hex()]
                for ts in ledger.committed_windows()]]
              for node_id, runtime in sorted(result.runtimes.items())
              for instance, ledger in sorted(runtime.ledgers.items())]
    return {"report.json": hashlib.sha256(report.read_bytes()).hexdigest(),
            "chains": hashlib.sha256(json.dumps(chains).encode()).hexdigest()}


# What a run decides, apart from anything a message's size steers: a change
# to wire bytes alone (a field added or deleted, a hash domain renamed)
# leaves every one of these digests where it is.
GOLDEN_SIZE_BLIND = {
    "clean_n4": {
        "report.json":
            "dd511b2e090bdd4b2e2137a9c2283158378622bd4b23af4e5aae2b0f30505d3b",
        "chains":
            "c0646846aa64263e46cc54d096e5b95c18b383cdf93b13e912c15e19c85da981",
    },
    "equivocating_proposer_n4": {
        "report.json":
            "e58f3aa92c322613ccbdd3b9cf3fe798b14c5d55e4aac47c5aab435c633235c5",
        "chains":
            "1ae36a79bfaf48c087ef8a47053d007a87ec72f2de7574ab97a6cd3dbfce2fe7",
    },
    "forging_quorum_n4": {
        "report.json":
            "c6dbcd6d6034037f2f5560128a856dd77671f4818d6bb3528faf668d94b3cb7d",
        "chains":
            "922ea20f9f89545eb7f04c5a0dab6d61d2ed5a20db8e0959d04a321406cc9ac0",
    },
    "lossy_n7_byzantine": {
        "report.json":
            "4803b8a98ce389e33fb9ed93a65f81508a00107e8728f2a5d3a25036b592ce57",
        "chains":
            "92b6ec259dd186fc45058e251da6f72f1f1c194cc2ddfb1b882eb44c969ac3ff",
    },
    "pool8_gossip2": {
        "report.json":
            "f07d34f559ad7523ec2a3bfeb52386786b662a3fb2517659d72ccb1f45641a90",
        "chains":
            "bcb691ec0a371f3e02e3dd3f0167fc93e1691a7e6e329a5f9dd99024062520a2",
    },
    "saturated_b64": {
        "report.json":
            "13d3828bd5d95764b1947df8779dcab8634050fb18aaeb2a46b56f01f3c4f0f5",
        "chains":
            "2d6278afdd31763716bff8a3c4cb2f4ddd86ddece40b4d3eae4ce05528d88beb",
    },
    "tampering_proposer_n7": {
        "report.json":
            "21eba7cd66c4f61c82b9a4560af715453800999a9b82ffc4d62f0d953206a1b9",
        "chains":
            "e91c94bfbc4da0cb706e8a3287d9f74b959e458140f003fd4cfd4fe0bc19cd97",
    },
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_size_blind_runs_decide_the_same(name, tmp_path):
    assert size_blind_digests(SPECS[name], tmp_path) == GOLDEN_SIZE_BLIND[name]


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
        "e7ff8807e16e04a1c2a3b283957432efd416f1d7833b4d31f043b44f838ecab8",
    "pivot_down_while_queued":
        "6d923f5d0e044f9cac45dde316da3a1964d30830c44d29faf2a3e5cfb4e88c21",
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


@pytest.mark.parametrize("name", sorted(n for n, spec in SPECS.items()
                                         if spec.sim.dup_rate))
def test_each_digest_is_signed_once_per_key_per_run(name, monkeypatch):
    """A duplicated or retransmitted pre-order or pre-commit, and a retried
    consensus round, ask a validator to sign a digest it signed before.
    Ed25519 signing is deterministic, so the run signs each (key, digest)
    once and answers the repeats from the run memo."""
    signed = []
    sodium = crypto._sodium_sign

    def counting_signer(out, _, payload, size, secret):
        signed.append((secret[32:], payload))       # (verify key, digest)
        if sodium is not None:
            return sodium(out, None, payload, size, secret)
        out.raw = Ed25519PrivateKey.from_private_bytes(secret[:32]).sign(
            payload)
        return 0

    monkeypatch.setattr(crypto, "_sodium_sign", counting_signer)
    run(SPECS[name])
    assert signed and len(signed) == len(set(signed))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verdict_memo_answers_what_a_fresh_check_would(name, monkeypatch):
    """Every certificate verdict and certificate digest the run memo holds
    at the end of the run equals the same check made with the memo
    emptied, so with real Ed25519 verifications: the same reason, and the
    same verify charged to a meter. A certificate's key carries the keys
    the run's registry holds for the booth's members and whether it holds
    the booth's pivot as one."""
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
            if key[0] in ("cert", "order-cert", "commit-cert")}
    assert memo
    registry = KeyService()
    for ident in result.identities:
        registry.register(ident)
    for key, verdict in memo.items():
        clear()
        if key[0] == "cert":
            _, booth_hash, cert, payload, keys, is_pivot = key
            booth = profiles[booth_hash]
            assert keys == registry.keys_of(booth.member_ids)
            assert is_pivot == registry.is_pivot(booth.pivot_id)
            meter = CountingMeter()
            reason = check(booth, cert, payload, registry, meter)
            fresh = (reason, sum(meter.verifies))
            assert len(meter.verifies) == (fresh[1] > 0)
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
