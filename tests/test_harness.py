"""End-to-end runs: completeness, determinism, faults, artifacts, CLI."""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from copy import copy
from dataclasses import replace
from heapq import heappop
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vguard import cli, crypto, harness, messages, netsim, node
from vguard.bench import run_benchmark
from vguard.codec import Reader, pack, pack_pairs
from vguard.errors import ConfigInvalid
from vguard.harness import (BATCH_BLOCK, RunSpec, batch_stream, load_spec_file,
                            plan_instances, run, seed_for_cell, spec_from_dict,
                            sweep, write_artifacts)
from vguard.ledger import DataBatch, DataEntry
from vguard.netsim import ChurnEvent, SimConfig, byzantine_schedule
from vguard.node import ProtocolConfig


def small_spec(**over) -> RunSpec:
    base = dict(duration_ms=400.0, grace_ms=400.0, rate_per_s=100.0, seed=3)
    base.update(over)
    return RunSpec(**base)


def ledger_bytes(result, tmp: Path, tag: str) -> dict[str, bytes]:
    outdir = tmp / tag
    paths = write_artifacts(result, outdir)
    return {p.name: p.read_bytes() for p in paths
            if p.name.startswith("ledger-")}


def test_clean_run_commits_every_submitted_batch():
    result = run(small_spec())
    inst = result.report["instances"][0]
    # the final tick can slip past the cutoff behind queued CPU work, so
    # the count is 39 or 40; what matters is that nothing accepted is lost
    assert inst["submitted_batches"] >= 39
    assert inst["ordered_batches"] == inst["submitted_batches"]
    assert inst["committed_batches"] == inst["submitted_batches"]
    assert inst["committed_entries"] == inst["committed_batches"] * 8
    assert inst["abandoned_batches"] == 0
    assert all(result.report["audits"].values())
    assert inst["ordering_messages"]["mean_per_round"] == 9.0  # 3(n-1), n=4
    # a quiet network leaves only benign counters (post-quorum stragglers)
    for counters in result.report["counters"].values():
        assert set(counters) <= {"late_reply"}


def test_same_seed_reproduces_report_and_ledgers(tmp_path):
    spec = small_spec(lambda0=2, sim=SimConfig(seed=0, drop_rate=0.05,
                                               gst_ms=150.0))
    a, b = run(spec), run(spec)
    assert a.report == b.report
    assert ledger_bytes(a, tmp_path, "a") == ledger_bytes(b, tmp_path, "b")
    c = run(replace(spec, seed=4))
    assert c.report != a.report


def test_gossip_does_not_perturb_consensus(tmp_path):
    # pool wider than the booth so there are off-booth vehicles to reach
    quiet = run(small_spec(lambda0=0, pool=8))
    chatty = run(small_spec(lambda0=2, pool=8))
    assert ledger_bytes(quiet, tmp_path, "off") == \
        ledger_bytes(chatty, tmp_path, "on")
    assert chatty.report["gossip"]        # but gossip did happen
    assert sum(s["stored"] for s in chatty.report["gossip"].values()) > 0
    assert quiet.report["gossip"] == {}
    # gossip drops are counted per reason, and not reported yet
    assert chatty.net.drops[3, "gossip.duplicate"] > 0
    assert not any(reason.startswith("gossip.") for counters
                   in chatty.report["counters"].values() for reason in counters)


def test_lossy_run_passes_strict_audit_over_retired_ids():
    # loss before GST makes ordering rounds time out; their retired ids
    # are gaps in the proposer's log that the strict audit must accept
    spec = small_spec(seed=7, sim=SimConfig(seed=0, drop_rate=0.1, gst_ms=300.0))
    assert spec.strict_audit
    result = run(spec)
    proposer = plan_instances(spec)[0].proposer_id
    assert result.runtimes[proposer].proposers[1].ordering.retired_ids
    assert all(result.report["audits"].values())
    inst = result.report["instances"][0]
    assert inst["committed_batches"] == inst["submitted_batches"]


def test_strict_audit_accepts_windows_an_honest_proposer_gave_up():
    """With no commit retries, loss makes the proposer give up windows. A
    given-up window is neither committed nor covered, and its entries'
    ids are missing from the chain: both are gaps the strict audit must
    accept, as it accepts retired ordering ids."""
    stalled = 0
    for seed in range(1, 9):
        spec = RunSpec(duration_ms=400.0, seed=seed,
                       sim=SimConfig(seed=0, drop_rate=0.1),
                       protocol=ProtocolConfig(max_retries=0))
        assert spec.strict_audit
        result = run(spec)
        assert all(result.report["audits"].values())
        stalled += result.report["instances"][0]["stalled_windows"]
    assert stalled > 0


def test_back_to_back_runs_make_the_same_real_verifications(monkeypatch):
    """harness.run empties the run memo, so a repeated run cannot lean on
    the previous run's signatures or checks: every signature hit is on a
    key the same run signed or verified, and both runs make the same number
    of signature misses, each of which is a real check. Identity keys sign
    through their raw `cryptography` key here, which records nothing, so
    every signature needs a real check."""

    class Memo(dict):
        def reset_tally(self):
            self.stored, self.hits, self.misses = set(), [], 0

        def get(self, key, default=None):
            out = super().get(key, default)
            if key[0] == "sig":
                if out is default:
                    self.misses += 1
                else:
                    self.hits.append(key)
            return out

        def __setitem__(self, key, value):
            if key[0] == "sig":
                self.stored.add(key)
            super().__setitem__(key, value)

    def raw_sign(key, payload_digest):
        return key._key.sign(payload_digest)

    memo = Memo()
    monkeypatch.setattr(crypto, "_memo", memo)
    monkeypatch.setattr(crypto.SigningKey, "sign", raw_sign)
    spec = small_spec(duration_ms=200.0, grace_ms=300.0)
    tallies = []
    for _ in range(2):
        memo.reset_tally()        # the tally only: the entries stay
        run(spec)
        assert set(memo.hits) <= memo.stored
        tallies.append((len(memo.hits), memo.misses))
    assert tallies[0] == tallies[1]
    assert min(tallies[1]) > 0


# every kind of key the run memo holds
MEMO_KINDS = {"sig", "pub", "cert", "order-cert", "commit-cert"}


def _module_containers() -> dict[str, object]:
    """A copy of every dict, set and list bound at the top level of a
    `vguard` module."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "vguard" or name.startswith("vguard.")]
    return {f"{mod.__name__}.{attr}": copy(value)
            for mod in modules for attr, value in vars(mod).items()
            if isinstance(value, (dict, set, list)) and not attr.startswith("__")}


def _unrecorded_signing(monkeypatch):
    """Signs the same bytes through `cryptography` and records nothing, so
    every check in a run is a real one and parsed keys are memoised too."""
    monkeypatch.setattr(crypto.SigningKey, "sign",
                        lambda self, payload: self._key.sign(payload))


def test_finished_run_leaves_no_memo_or_intern_entries(monkeypatch):
    """The run memo is emptied at the end of a run too, so a finished run's
    decoded messages and checks do not outlive it: it holds entries of
    every kind when the run ends and none once the run has returned. No
    top-level dict, set or list of `vguard` differs after a run from before
    it, so a memo left out of `clear_caches` fails here too."""
    _unrecorded_signing(monkeypatch)
    spec = small_spec(duration_ms=100.0, grace_ms=200.0, lambda0=2, pool=6)
    run(replace(spec, seed=4))      # fills one-time tables: codec layouts
    before = _module_containers()
    at_end = []
    clear = crypto.clear_caches

    def measure_then_clear():
        at_end.append({key[0] for key in crypto._memo})
        clear()

    monkeypatch.setattr(crypto, "clear_caches", measure_then_clear)
    run(spec)
    assert at_end[-1] == MEMO_KINDS
    assert not crypto._memo
    assert _module_containers() == before


def test_every_process_wide_memo_stays_within_its_bound(monkeypatch):
    """A run stores keys of every kind in the one memo, and the memo never
    holds more than `MEMO_SIZE` of them."""
    class HighWater(dict):
        def __init__(self):
            super().__init__()
            self.high, self.kinds = 0, set()

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.kinds.add(key[0])
            self.high = max(self.high, len(self))

    _unrecorded_signing(monkeypatch)
    monkeypatch.setattr(crypto, "MEMO_SIZE", 2)
    memo = HighWater()
    monkeypatch.setattr(crypto, "_memo", memo)
    run(small_spec(duration_ms=100.0, grace_ms=200.0, lambda0=2, pool=6))
    assert memo.kinds == MEMO_KINDS and memo.high <= 2, (memo.kinds,
                                                         memo.high)


@pytest.mark.parametrize("size", [*range(10), *range(62, 67)])
def test_one_draw_per_batch_matches_one_draw_per_entry(size):
    """The workload draws and frames a block of batches at once. Across
    three blocks, each batch equals `pack_pairs` over one `rng.bytes` call
    per entry, and the generator state after each block's draw equals the
    state after that block's calls."""
    for count in (1, 3, 8, 64):
        for first in (1, 2**40 + 7):
            per_entry = np.random.default_rng([size, count])
            per_block = np.random.default_rng([size, count])
            per_entry.bytes(3)        # start off a 64-bit boundary as well
            per_block.bytes(3)
            stream = batch_stream(per_block, count, size, first)
            seq = first
            for index in range(3 * BATCH_BLOCK):
                expected = pack_pairs([(seq + i, per_entry.bytes(size))
                                       for i in range(count)])
                seq += count
                batch = next(stream)
                assert (batch.packed, len(batch)) == (expected, count)
                if index % BATCH_BLOCK == BATCH_BLOCK - 1:
                    assert (per_block.bit_generator.state
                            == per_entry.bit_generator.state)
            assert per_block.bytes(7) == per_entry.bytes(7)


def test_churned_vehicle_triggers_rebooking_not_loss():
    spec = small_spec(
        pool=6, duration_ms=600.0,
        churn=(ChurnEvent(at_ms=150.0, node_id=4, up=False),
               ChurnEvent(at_ms=400.0, node_id=4, up=True)))
    result = run(spec)
    inst = result.report["instances"][0]
    assert inst["committed_batches"] == inst["submitted_batches"]
    assert inst["booth_changes"] >= 2     # away from node 4, later back
    assert all(result.report["audits"].values())


def test_silent_validator_within_fault_budget_is_absorbed():
    spec = small_spec(pool=5, byzantine=((4, ("silent",)),))
    result = run(spec)
    inst = result.report["instances"][0]
    assert inst["committed_batches"] == inst["submitted_batches"] >= 39


@pytest.mark.parametrize("byzantine, strict_node", [
    (((4, ("silent",)),), 2), (((3, ("tamper_payload",)),), 2),
    (((2, ("silent",)),), None)], ids=["silent-4", "tamper-3", "proposer"])
def test_strict_audit_reaches_an_honest_proposer_beside_byzantine_nodes(
        monkeypatch, byzantine, strict_node):
    """Only a byzantine proposer, or churn, exempts the proposer's ledger
    from the strict audit; a byzantine validator does not. A failed audit
    of an honest node's ledger would end the run with VerificationFailed."""
    strict_ledgers = []
    audit = harness.verify_chain

    def recording(ledger, registry=None, strict=False, **kw):
        if strict:
            strict_ledgers.append(ledger)
        return audit(ledger, registry, strict=strict, **kw)

    monkeypatch.setattr(harness, "verify_chain", recording)
    result = run(small_spec(pool=5, byzantine=byzantine))
    assert result.spec.strict_audit
    strict = [node_id for node_id, runtime in result.runtimes.items()
              if any(runtime.ledgers.get(1) is l for l in strict_ledgers)]
    assert strict == ([strict_node] if strict_node else [])


@pytest.mark.parametrize("churned, strict_node", [(3, 2), (1, 2), (2, None)],
                         ids=["vehicle", "pivot", "proposer"])
def test_strict_audit_reaches_an_honest_proposer_no_churn_event_names(
        monkeypatch, churned, strict_node):
    """Churn exempts the proposer's ledger from the strict audit only when
    a churn event names the proposer."""
    strict_ledgers = []
    audit = harness.verify_chain

    def recording(ledger, registry=None, strict=False, **kw):
        if strict:
            strict_ledgers.append(ledger)
        return audit(ledger, registry, strict=strict, **kw)

    monkeypatch.setattr(harness, "verify_chain", recording)
    result = run(small_spec(pool=5, churn=(
        ChurnEvent(at_ms=100.0, node_id=churned, up=False),
        ChurnEvent(at_ms=300.0, node_id=churned, up=True))))
    strict = [node_id for node_id, runtime in result.runtimes.items()
              if any(runtime.ledgers.get(1) is l for l in strict_ledgers)]
    assert strict == ([strict_node] if strict_node else [])


def test_equivocating_proposer_cannot_commit_anything():
    spec = small_spec(gamma=2, pool=6,
                      byzantine=((3, ("equivocate_ordering_id",)),))
    result = run(spec)
    by_id = {inst["instance"]: inst for inst in result.report["instances"]}
    healthy, doomed = by_id[1], by_id[2]
    assert healthy["committed_batches"] == healthy["submitted_batches"] > 0
    assert doomed["ordered_batches"] == 0
    assert doomed["committed_batches"] == 0
    # honest members saw the two-faced proposals and refused both branches
    rejects = [c for counters in result.report["counters"].values()
               for c in counters]
    assert any(r in ("wrong_digest", "reused_id", "bad_hash")
               for r in rejects)


@pytest.mark.parametrize("behavior", ["equivocate_ordering_id",
                                      "tamper_payload"])
def test_byzantine_forgery_is_made_once_per_message(behavior, monkeypatch):
    """A proposer hands each PreOrder to its actor once per recipient; the
    forged batch is made once per message, and every forged recipient gets
    the same object, so it is also encoded once."""
    flips = []
    flip = node._flip_first_byte
    monkeypatch.setattr(node, "_flip_first_byte",
                        lambda batch: flips.append(batch) or flip(batch))
    sends = []
    transform = node.ByzantineActor.transform

    def spy(actor, dst, msg):
        out = transform(actor, dst, msg)
        if isinstance(msg, messages.PreOrder):
            sends.append((msg, [m for _, m in out if m is not msg]))
        return out

    monkeypatch.setattr(node.ByzantineActor, "transform", spy)
    run(small_spec(duration_ms=100.0, grace_ms=100.0,
                   byzantine=((2, (behavior,)),)))
    by_message: dict[int, tuple[object, list]] = {}
    for msg, forged in sends:
        by_message.setdefault(id(msg), (msg, []))[1].extend(forged)
    assert len(flips) == len(by_message) > 0
    assert len(sends) > len(by_message)
    for msg, forged in by_message.values():
        assert forged and all(f is forged[0] for f in forged)


def _flip_by_repacking(batch: DataBatch) -> DataBatch:
    """The forgery as a parse of the batch, a new first entry and a repack."""
    entry = batch.entries[0]
    payload = bytes([entry.payload[0] ^ 0xFF]) + entry.payload[1:]
    return DataBatch(entries=(DataEntry(entry.origin_seq, payload),
                              *batch.entries[1:]))


@pytest.mark.parametrize("size", [*range(1, 10), *range(62, 67)])
@pytest.mark.parametrize("count", [1, 3, 64])
def test_forgery_edits_the_packed_bytes_as_a_repack_would(size, count):
    batch = next(batch_stream(np.random.default_rng(size), count, size,
                              2**40 + 7))
    forged = node._flip_first_byte(batch)
    assert forged == _flip_by_repacking(batch)
    assert len(forged) == count


def test_forgery_of_an_empty_first_payload_flips_its_origin_seq():
    batch = DataBatch([DataEntry(5, b""), DataEntry(6, b"ab")])
    forged = node._flip_first_byte(batch)
    assert forged.entries == (DataEntry(5 ^ 0xFF, b""), DataEntry(6, b"ab"))
    assert DataBatch.read_from(Reader(pack(forged.to_field()))) == forged


def test_saturation_keeps_pipe_full():
    result = run(small_spec(rate_per_s=None, duration_ms=300.0))
    inst = result.report["instances"][0]
    assert inst["submitted_batches"] > 0
    assert inst["committed_batches"] > 0
    assert inst["submitted_batches"] >= inst["committed_batches"]


def test_artifacts_layout(tmp_path):
    spec = small_spec(duration_ms=200.0, sim=SimConfig(seed=0, trace=True))
    result = run(spec)
    paths = write_artifacts(result, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert "report.json" in names
    assert "report.csv" in names
    assert "trace.jsonl" in names
    assert any(n.startswith("ledger-1-") for n in names)

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report == result.report
    csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 2            # header plus one instance row
    assert "committed_entries" in csv_lines[0]
    first_trace = json.loads((tmp_path / "out" / "trace.jsonl").read_text()
                             .splitlines()[0])
    assert {"t", "kind", "src", "dst"} <= set(first_trace)


def test_spec_file_loading(tmp_path):
    payload = {
        "booth_size": 7, "pool": 9, "batch_size": 4, "seed": 11,
        "duration_ms": 250.0,
        "sim": {"drop_rate": 0.1, "gst_ms": 100.0},
        "protocol": {"timeout_floor_ms": 30.0},
        "mmu": {"queue_depth": 2},
        "churn": [{"at_ms": 50.0, "node_id": 5, "up": False}],
        "byzantine": {"8": ["silent"]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    spec = load_spec_file(path)
    assert spec.booth_size == 7
    assert spec.pool == 9
    assert spec.sim.drop_rate == 0.1
    assert spec.protocol.timeout_floor_ms == 30.0
    assert spec.mmu.queue_depth == 2
    assert spec.churn[0].node_id == 5
    assert spec.byzantine == ((8, ("silent",)),)

    with pytest.raises(ConfigInvalid):
        spec_from_dict({"booth_scale": 4})

    with pytest.raises(ConfigInvalid):
        run(RunSpec(booth_size=5))        # not 3f+1

    with pytest.raises(ConfigInvalid):
        run(RunSpec(pool=3))              # smaller than one booth


def test_instance_planning():
    plans = plan_instances(RunSpec(gamma=3, pool=8))
    assert [(p.instance_id, p.proposer_id, p.pivot_id) for p in plans] == \
        [(1, 2, 1), (2, 3, 1), (3, 4, 1)]


def test_sweep_uses_derived_independent_seeds():
    base = small_spec(duration_ms=200.0)
    outcome = sweep(base, "batch_size", [4, 8])
    assert outcome["dimension"] == "batch_size"
    seeds = [cell["report"]["seed"] for cell in outcome["cells"]]
    assert seeds == [seed_for_cell(base.seed, 0), seed_for_cell(base.seed, 1)]
    assert len(set(seeds)) == 2
    sizes = [cell["report"]["config"]["batch_size"]
             for cell in outcome["cells"]]
    assert sizes == [4, 8]


def test_benchmark_mode_runs_and_audits():
    result = run_benchmark(small_spec(duration_ms=300.0, grace_ms=300.0))
    inst = result.report["instances"][0]
    assert inst["committed_batches"] > 0
    assert all(result.report["audits"].values())

    # loss and duplication are simulation faults: benchmark mode delivers
    # every protocol message once, and only pings sent after the cutoff
    # can still be in flight
    result = run_benchmark(small_spec(
        duration_ms=300.0, grace_ms=300.0,
        sim=SimConfig(drop_rate=0.2, dup_rate=0.1)))
    inst = result.report["instances"][0]
    assert inst["committed_batches"] == inst["submitted_batches"]
    sent = result.net.totals_by_category()
    for category in ("ordering", "consensus"):
        assert result.net.delivered[category] == sent[category]
    assert all(result.report["audits"].values())


@pytest.mark.parametrize("mode", ["reference", "benchmark"])
def test_finished_run_is_freed_by_reference_counting(mode):
    """A finished run holds no reference cycles: with the cyclic collector
    off, its network and its nodes die with the last reference to its
    result."""
    spec = small_spec(duration_ms=100.0, grace_ms=200.0, pool=5, lambda0=2)
    runner = run_benchmark if mode == "benchmark" else run
    gc.collect()
    gc.disable()
    try:
        result = runner(spec)
        assert result.report["instances"][0]["committed_batches"] > 0
        net, node = weakref.ref(result.net), weakref.ref(result.runtimes[2])
        del result
        assert net() is None
        assert node() is None
    finally:
        gc.enable()


class _CountedFrame(messages.Frame):
    """A frame that counts how many of its kind are alive."""

    live = 0

    def __new__(cls, wire):
        _CountedFrame.live += 1
        return super().__new__(cls, wire)

    def __del__(self):
        _CountedFrame.live -= 1


@pytest.mark.parametrize("duration_ms", [1_000.0, 3_000.0])
def test_frames_are_bounded_by_in_flight_work(duration_ms, monkeypatch):
    """A frame lives only while its delivery is pending or running: between
    any two scheduler events no more frames are alive than pending events
    and invocations queued behind a busy CPU, plus the delivery the last
    event ran, in a lossy pool-8 gossip run with a byzantine validator, at
    1 s as at 3 s. None is alive once the run has returned."""
    samples = []

    def sampled_run_until(net, until_ms):
        sched = net.sched
        heap = sched._heap
        while heap and heap[0][0] <= until_ms:
            when, _, fn = heappop(heap)
            sched.now = when
            fn()
            queued = sum(len(q.waiting) for q in net._queues.values())
            samples.append((_CountedFrame.live, len(heap) + queued + 1))
        sched.now = max(sched.now, until_ms)

    monkeypatch.setattr(messages, "Frame", _CountedFrame)
    monkeypatch.setattr(netsim.Network, "run_until", sampled_run_until)
    _CountedFrame.live = 0
    result = run(RunSpec(
        booth_size=4, pool=8, lambda0=2, rate_per_s=200.0,
        duration_ms=duration_ms, seed=3, strict_audit=False,
        sim=SimConfig(seed=0, drop_rate=0.05, dup_rate=0.02),
        byzantine=((3, ("forge_quorum",)),)))
    assert result.report["instances"][0]["committed_batches"] > 0
    assert max(live for live, _ in samples) > 0
    assert all(live <= bound for live, bound in samples)
    assert _CountedFrame.live == 0


def _benchmark_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, module)   # for @dataclass
    loader.loader.exec_module(module)
    return module.WORKLOADS


def test_saturated_benchmark_run_makes_no_real_verify(monkeypatch):
    """The run memo holds verdicts only, so the saturated_b64 seed-1 spec
    run for 0.8 s keeps every signature it made until its audit: neither
    the run nor the audit makes a real Ed25519 verify."""
    spec = _benchmark_workloads(monkeypatch)["saturated_b64"](1).specs[0]
    real = []
    verifies = crypto._really_verifies

    def counting(*args):
        real.append(args)
        return verifies(*args)

    monkeypatch.setattr(crypto, "_really_verifies", counting)
    result = run(replace(spec, duration_ms=800.0))
    assert result.report["instances"][0]["committed_batches"] > 0
    assert all(result.audits.values())
    assert real == []


def test_benchmark_mode_rejects_fault_schedules():
    with pytest.raises(ConfigInvalid):
        run_benchmark(small_spec(byzantine=((4, ("silent",)),), pool=5))
    with pytest.raises(ConfigInvalid):
        run_benchmark(small_spec(
            churn=(ChurnEvent(at_ms=10.0, node_id=4, up=False),)))


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "vguard", "--help"], env=env,
                         capture_output=True, text=True, check=True)
    assert "usage: vguard" in out.stdout


def test_cli_run_and_sweep(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = cli.main(["run", "--duration-ms", "200", "--rate", "100",
                     "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    summary = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert summary["audits_ok"] is True

    code = cli.main(["run", "--mode", "benchmark", "--duration-ms", "200",
                     "--rate", "100", "--seed", "5"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "benchmark"
    assert summary["audits_ok"] is True

    code = cli.main(["sweep", "--dimension", "batch_size", "--values", "4,8",
                     "--duration-ms", "200", "--rate", "100",
                     "--out", str(tmp_path / "sweep")])
    assert code == 0
    cells = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["cells"]
    assert [c["value"] for c in cells] == [4, 8]

    assert cli.main(["sweep", "--dimension", "bogus", "--values", "1"]) == 2
    assert cli.main(["run", "--booth-size", "6"]) == 2


@pytest.mark.parametrize("flag, entries", [
    ("--churn", [{"at_ms": 100, "node_id": 3}]),
    ("--churn", [{"at_ms": 100, "node_id": 3, "status": "dwon"}]),
    ("--byzantine", [{"node_id": 3, "behaviors": ["silnet"]}]),
    ("--spec", {"byzantine": {"3": ["silnet"]}}),
    ("--churn", {"at_ms": 100, "node_id": 3, "status": "down"}),
    ("--byzantine", 5),
    ("--spec", {"churn": {"at_ms": 100, "node_id": 3, "status": "down"}}),
    ("--churn", [{"at_ms": float("nan"), "node_id": 3, "status": "down"}]),
    ("--churn", [{"at_ms": float("inf"), "node_id": 3, "status": "down"}]),
    ("--churn", [{"at_ms": -5, "node_id": 3, "status": "down"}]),
    ("--churn", [{"at_ms": 100, "node_id": 99, "status": "down"}]),
    ("--churn", [{"at_ms": 100, "node_id": 0, "status": "down"}]),
    ("--byzantine", [{"node_id": 99, "behaviors": ["silent"]}]),
    ("--spec", {"byzantine": {"5": ["silent"]}}),
], ids=["churn-no-status", "churn-misspelled-status", "byzantine-unknown",
        "spec-byzantine-unknown", "churn-one-object", "byzantine-not-a-list",
        "spec-churn-one-object", "churn-at-nan", "churn-at-inf",
        "churn-at-negative", "churn-node-outside-pool", "churn-node-zero",
        "byzantine-node-outside-pool", "spec-byzantine-node-outside-pool"])
def test_cli_rejects_bad_schedule_files(tmp_path, capsys, flag, entries,
                                        no_run_starts):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(entries))
    assert cli.main(["run", "--duration-ms", "200", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("raw", [b'[{"node_id": 3,', b'["\xff"]'],
                         ids=["cut-short", "not-utf8"])
@pytest.mark.parametrize("flag", ["--spec", "--churn", "--byzantine"])
def test_cli_rejects_files_that_are_not_json(tmp_path, capsys, flag, raw,
                                             no_run_starts):
    path = tmp_path / "file.json"
    path.write_bytes(raw)
    assert cli.main(["run", "--duration-ms", "200", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize("flag, name", [
    ("--spec", "missing.json"), ("--byzantine", "missing.json"),
    ("--churn", "a-directory")])
def test_cli_rejects_paths_that_cannot_be_read(tmp_path, capsys, flag, name,
                                               no_run_starts):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    assert cli.main(["run", "--duration-ms", "200", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("data, error", [
    ([1, 2], "a spec must be a JSON object"),
    ({"sim": [1]}, "sim must be a JSON object"),
    ({"protocol": 3}, "protocol must be a JSON object"),
    ({"mmu": "deep"}, "mmu must be a JSON object"),
    ({"protocol": {"bogus": 1}}, "unknown spec field protocol.bogus"),
    ({"sim": {"cost": 5}}, "sim.cost must be a JSON object"),
    ({"mmu": {"booth_size": 7}}, "unknown spec field mmu.booth_size"),
    ({"protocol": {"delta_us": 5000}}, "unknown spec field protocol.delta_us"),
    ({"sim": {"cost": {"zz": 1}}}, "unknown spec field sim.cost.zz"),
    ({"overlay": 5}, "unknown spec field overlay"),
], ids=["list", "sim-list", "protocol-int", "mmu-str", "protocol-unknown-field",
        "sim-cost-int", "mmu-booth-size", "protocol-delta-us",
        "sim-cost-unknown-field", "overlay"])
def test_cli_rejects_spec_files_of_the_wrong_shape(tmp_path, capsys, data,
                                                   error, no_run_starts):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--duration-ms", "200", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


BAD_FIELDS = {
    "booth-size-str": {"booth_size": "4"}, "pool-float": {"pool": 8.0},
    "batch-size-bool": {"batch_size": True}, "gamma-none": {"gamma": None},
    "delta-float": {"delta_us": 1e5}, "lambda0-str": {"lambda0": "2"},
    "payload-float": {"payload_bytes": 6.5},
    "seed-str": {"seed": "1"}, "duration-str": {"duration_ms": "300"},
    "grace-none": {"grace_ms": None}, "rate-str": {"rate_per_s": "fast"},
    "rate-bool": {"rate_per_s": True}, "rate-zero": {"rate_per_s": 0},
    "rate-negative": {"rate_per_s": -5.0},
    "payload-negative": {"payload_bytes": -1},
    "duration-inf": {"duration_ms": float("inf")},
    "grace-nan": {"grace_ms": float("nan")},
    "rate-nan": {"rate_per_s": float("nan")},
    "rate-inf": {"rate_per_s": float("inf")},
    "sim-delay-mean-nan": {"sim": {"delay_mean_ms": float("nan")}},
    "sim-delay-sd-inf": {"sim": {"delay_sd_ms": float("inf")}},
    "sim-gst-nan": {"sim": {"gst_ms": float("nan")}},
    "sim-gst-bound-inf": {"sim": {"gst_bound_ms": float("inf")}},
    "sim-bandwidth-nan": {"sim": {"bandwidth_bytes_per_ms": float("nan")}},
    "mmu-ping-period-zero": {"mmu": {"ping_period_ms": 0}},
    "mmu-ping-period-nan": {"mmu": {"ping_period_ms": float("nan")}},
    "mmu-ewma-alpha-above-one": {"mmu": {"ewma_alpha": 5}},
    "protocol-timeout-factor-nan": {"protocol": {"timeout_factor": float("nan")}},
    "protocol-max-inflight-zero": {"protocol": {"max_inflight": 0}},
    "sim-cost-verify-nan": {"sim": {"cost": {"verify_ms": float("nan")}}},
    "sim-cost-base-negative": {"sim": {"cost": {"base_ms": -1}}},
    "sim-delay-sd-negative": {"sim": {"delay_sd_ms": -0.5}},
    "batch-size-zero": {"batch_size": 0},
    "strict-audit-str": {"strict_audit": "no"},
    "label-int": {"label": 5},
    "sim-reorder-str": {"sim": {"reorder": "no"}},
    "sim-trace-int": {"sim": {"trace": 1}},
    "sim-drop-rate-one": {"sim": {"drop_rate": 1.0}},
    "sim-dup-rate-above-one": {"sim": {"dup_rate": 1.5}},
    "sim-seed-nonzero": {"sim": {"seed": 5}},
}


def dotted_path(data: dict) -> str:
    """The dotted name of the one field a `BAD_FIELDS` entry sets."""
    (name, value), = data.items()
    return name + ("." + dotted_path(value) if isinstance(value, dict) else "")


@pytest.fixture
def no_run_starts(monkeypatch):
    """A bad spec must be refused before its run builds anything: a run
    with an infinite duration would never return."""
    def refuse(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "_build_identities", refuse)


@pytest.mark.parametrize("data", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_cli_rejects_spec_fields_of_the_wrong_type_or_range(tmp_path, capsys,
                                                           data, no_run_starts):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"duration_ms": 50.0, "grace_ms": 50.0, **data}))
    assert cli.main(["run", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {dotted_path(data)} must ")


@pytest.mark.parametrize("flag, value", [
    ("--duration-ms", "inf"), ("--rate", "nan"), ("--rate", "inf"),
    ("--delay-mean-ms", "nan"), ("--gst-ms", "nan"), ("--delay-sd-ms", "inf")])
def test_cli_rejects_non_finite_flags(capsys, no_run_starts, flag, value):
    assert cli.main(["run", "--duration-ms", "50", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("dimension, token, error", [
    ("duration_ms", "x", "sweep value must be a number"),
    ("duration_ms", "inf", "duration_ms must be finite"),
    ("batch_size", "1e5", "batch_size must be int")])
def test_cli_sweep_reads_each_value_as_an_int_else_a_float(
        capsys, no_run_starts, dimension, token, error):
    assert cli.main(["sweep", "--dimension", dimension, "--values", token]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_cli_sweep_takes_a_float_in_exponent_form(tmp_path):
    code = cli.main(["sweep", "--dimension", "duration_ms", "--values", "1e2",
                     "--rate", "100", "--out", str(tmp_path)])
    assert code == 0
    (cell,) = json.loads((tmp_path / "sweep.json").read_text())["cells"]
    assert cell["value"] == 100.0
    assert cell["report"]["config"]["duration_ms"] == 100.0


def test_each_setting_flag_sets_its_field_and_seed_seeds_the_run(tmp_path,
                                                                monkeypatch):
    """Each flag lands on the field its dest names; `--seed` is the run's
    seed, and a schedule flag's file is read as that field is in a spec."""
    specs = []
    monkeypatch.setattr(cli, "_cmd_run",
                        lambda args: specs.append(cli._spec_from_args(args)) or 0)
    churn, byzantine = tmp_path / "churn.json", tmp_path / "byzantine.json"
    churn.write_text(json.dumps([{"at_ms": 5, "node_id": 9, "status": "down"}]))
    byzantine.write_text(json.dumps({"8": ["silent"]}))
    assert cli.main([
        "run", "--seed", "9", "--booth-size", "7", "--pool", "9",
        "--batch-size", "3", "--gamma", "2", "--delta-us", "5000",
        "--lambda0", "2", "--duration-ms", "10", "--rate", "5", "--gst-ms", "7",
        "--drop-rate", "0.1", "--delay-mean-ms", "2", "--delay-sd-ms", "0.5",
        "--trace", "--label", "x", "--churn", str(churn),
        "--byzantine", str(byzantine)]) == 0
    (spec,) = specs
    assert spec.churn == (ChurnEvent(at_ms=5.0, node_id=9, up=False),)
    assert spec.byzantine == ((8, ("silent",)),)
    assert (spec.seed, spec.booth_size, spec.pool, spec.batch_size, spec.gamma,
            spec.delta_us, spec.lambda0, spec.duration_ms, spec.rate_per_s,
            spec.label) == (9, 7, 9, 3, 2, 5000, 2, 10.0, 5.0, "x")
    assert (spec.sim.seed, spec.sim.gst_ms, spec.sim.drop_rate,
            spec.sim.delay_mean_ms, spec.sim.delay_sd_ms, spec.sim.trace) == \
        (0, 7.0, 0.1, 2.0, 0.5, True)
    assert spec.validate() is spec


def test_cli_flags_that_are_not_given_keep_the_spec_file(tmp_path):
    """An absent `--label` or `--trace` leaves the spec file's value, also
    when another sim flag is given."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"label": "from-file", "duration_ms": 100.0,
                                "grace_ms": 100.0, "sim": {"trace": True}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--spec", str(path), "--drop-rate", "0.01",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["label"] == "from-file"
    assert report["config"]["drop_rate"] == 0.01
    assert (out / "trace.jsonl").exists()


def test_report_names_byzantine_nodes_and_counts_stalled_windows():
    """A silent vehicle beside heavy loss and a single retry leaves windows
    that never commit; the report says which nodes were byzantine and how
    many windows each instance gave up on."""
    spec = small_spec(duration_ms=300.0, grace_ms=300.0, rate_per_s=60.0,
                      seed=1, byzantine=((4, ("silent",)),),
                      strict_audit=False,
                      protocol=ProtocolConfig(max_retries=1),
                      sim=SimConfig(seed=0, drop_rate=0.3))
    result = run(spec)
    assert result.report["config"]["byzantine"] == {"4": ["silent"]}
    (inst,) = result.report["instances"]
    assert inst["stalled_windows"] == result.net.events["stalled_windows", 1] > 0
    assert inst["stalled_windows"] == result.net.drops[2, "expired"]
    assert run(small_spec()).report["config"]["byzantine"] == {}


@pytest.mark.parametrize("behavior, reason, node", [
    ("equivocate_ordering_id", "wrong_digest", 2),
    ("tamper_payload", "bad_hash", 3),
    ("forge_quorum", "foreign_quorum_member", 3)])
def test_forging_proposer_gets_nothing_committed_at_validators(behavior,
                                                               reason, node):
    """Each forgery of a byzantine proposer (node 2) is still refused: the
    named node counts it under `reason`, and no validator commits a
    window. An equivocation orders nothing anywhere, a tampered batch is
    never countersigned, and a forged quorum is never accepted."""
    spec = small_spec(duration_ms=200.0, grace_ms=300.0, rate_per_s=60.0,
                      byzantine=((2, (behavior,)),))
    result = run(spec)
    assert result.report["counters"][str(node)].get(reason, 0) > 0
    for node_id in (1, 3, 4):
        ledger = result.ledger(1, node_id)
        assert ledger is None or not ledger.committed_windows()
    if behavior != "forge_quorum":
        assert not result.ledger(1, 2).committed_windows()
    assert all(result.report["audits"].values())


def test_cli_rejects_a_zero_rate_flag(capsys):
    assert cli.main(["run", "--duration-ms", "50", "--rate", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_numeric_spec_fields_accept_ints_floats_and_numpy_scalars():
    spec = RunSpec(duration_ms=300, grace_ms=0, rate_per_s=np.float64(60.5),
                   payload_bytes=0, seed=np.int64(7), pool=None)
    assert spec.validate() == spec
    assert RunSpec(rate_per_s=None).validate().rate_per_s is None


@pytest.mark.parametrize("seed", [1, 7919])
def test_every_benchmark_spec_validates(seed, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, module)   # for @dataclass
    loader.loader.exec_module(module)
    for build in module.WORKLOADS.values():
        for tiny in (False, True):
            workload = build(seed, tiny=tiny)
            for spec in (*workload.specs, workload.warmup):
                spec.validate()


def test_spec_takes_byzantine_in_the_schedule_file_form():
    listed = spec_from_dict(
        {"byzantine": [{"node_id": 3, "behaviors": ["silent"]}]})
    keyed = spec_from_dict({"byzantine": {"3": ["silent"]}})
    assert listed.byzantine == keyed.byzantine == ((3, ("silent",)),)
    with pytest.raises(ConfigInvalid):
        spec_from_dict({"byzantine": [{"node_id": 3}]})


def test_tampering_proposer_runs_with_empty_payloads(tmp_path, capsys):
    """With no payload byte to flip, the forgery still makes a batch."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "payload_bytes": 0, "duration_ms": 100.0, "grace_ms": 100.0,
        "byzantine": {"2": ["tamper_payload"]}}))
    assert cli.main(["run", "--spec", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["audits_ok"]


def test_churn_entries_read_status_or_up():
    parse = ChurnEvent.from_dict
    assert parse({"at_ms": 1, "node_id": 3, "status": "down"}).up is False
    assert parse({"at_ms": 2, "node_id": 3, "status": "Up"}).up is True
    assert parse({"at_ms": 3, "node_id": 3, "up": False}) == \
        ChurnEvent(at_ms=3.0, node_id=3, up=False)


@pytest.mark.parametrize("node", [3.7, 3.0, True, "3", None],
                         ids=["fraction", "float", "bool", "text", "null"])
def test_schedule_lists_refuse_a_node_id_that_is_not_an_integer(node):
    """A fractional id is a typo for another node, not that node: it is
    refused, not truncated."""
    with pytest.raises(ConfigInvalid):
        ChurnEvent.from_dict({"at_ms": 100, "node_id": node, "status": "down"})
    with pytest.raises(ConfigInvalid):
        byzantine_schedule([{"node_id": node, "behaviors": ["silent"]}])
    assert ChurnEvent.from_dict(
        {"at_ms": 100, "node_id": np.int64(3), "up": True}).node_id == 3


def test_the_byzantine_map_takes_integer_text_keys_only():
    assert byzantine_schedule({"3": ["silent"], 2: []}) == (
        (2, ()), (3, ("silent",)))
    for key in ("3.7", "true", "", 3.7, True):
        with pytest.raises(ConfigInvalid):
            byzantine_schedule({key: ["silent"]})


@pytest.mark.parametrize("flag, entries", [
    ("--churn", [{"at_ms": 100, "node_id": 3.7, "status": "down"}]),
    ("--byzantine", [{"node_id": 2.9, "behaviors": ["silent"]}]),
    ("--spec", {"churn": [{"at_ms": 100, "node_id": True, "up": False}]}),
], ids=["churn", "byzantine", "spec-churn"])
def test_cli_refuses_a_node_id_that_is_not_an_integer(
        tmp_path, capsys, flag, entries, no_run_starts):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(entries))
    assert cli.main(["run", "--duration-ms", "200", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=500))
def test_latency_percentiles_equal_one_percentile_call_each(values_us):
    """The reference: one `np.percentile` call per reported percentile."""
    arr = np.asarray(values_us, dtype=np.float64) / 1000.0
    assert harness._percentiles_ms(values_us) == {
        f"p{q}": round(float(np.percentile(arr, q)), 3) for q in (50, 95, 99)}


_TIED = st.lists(st.integers(0, 10**9), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=2000))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.lists(st.integers(0, 10**9), max_size=2000), _TIED))
@example([])
@example([7])
@example([5, 5, 5, 5])
@example([0, 10**9])
def test_latency_percentiles_are_numpy_linear_percentiles(values_us):
    """The report's percentiles are what one `np.percentile` call over all
    three gives, rounded to 3 places and as floats, so `report.json` reads
    the same; with no samples, each is 0.0."""
    got = harness._percentiles_ms(values_us)
    if values_us:
        ms = np.percentile(np.asarray(values_us, np.float64) / 1000,
                           (50, 95, 99))
        assert got == {key: round(float(value), 3)
                       for key, value in zip(("p50", "p95", "p99"), ms)}
    else:
        assert got == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert all(type(value) is float for value in got.values())


def test_a_run_and_its_report_never_import_numpy_ma():
    """`np.percentile` imports `numpy.ma`, which no run needs: a golden run,
    report included, leaves it unloaded in a fresh process."""
    root = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root.parent / "src"), str(root),
                    env.get("PYTHONPATH")) if p)
    code = ("import json, sys\n"
            "from test_golden import SPECS\n"
            "from vguard import harness\n"
            "before = 'numpy.ma' in sys.modules\n"
            "report = harness.run(SPECS['clean_n4']).report\n"
            "print(json.dumps([before, 'numpy.ma' in sys.modules,\n"
            "                  report['instances'][0]['committed_batches']]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    before, after, committed = json.loads(out.stdout)
    assert (before, after) == (False, False)
    assert committed > 0
