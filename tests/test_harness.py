"""End-to-end runs: completeness, determinism, faults, artifacts, CLI."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vguard import cli, crypto, messages, node
from vguard.bench import run_benchmark
from vguard.errors import ConfigInvalid
from vguard.harness import (RunSpec, draw_payloads, load_spec_file,
                            plan_instances, run, seed_for_cell, spec_from_dict,
                            sweep, write_artifacts)
from vguard.netsim import ChurnEvent, SimConfig


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


def test_back_to_back_runs_make_the_same_real_verifications(monkeypatch):
    """harness.run empties the signature memo, so a repeated run cannot
    lean on the previous run's signatures or checks: every memo hit is on a
    triple the same run signed or verified, and both runs make the same
    number of memo misses, each of which is a real check. Booth shares are
    handed out as raw keys here; those record nothing when they sign, so
    every booth-local signature needs a real check."""

    class Memo(dict):
        def reset_tally(self):
            self.stored, self.hits, self.misses = set(), [], 0

        def get(self, triple):
            ok = super().get(triple)
            if ok is None:
                self.misses += 1
            else:
                self.hits.append(triple)
            return ok

        def __setitem__(self, triple, ok):
            self.stored.add(triple)
            super().__setitem__(triple, ok)

    dealt = crypto.KeyService.booth_share

    def raw_share(registry, booth_id, node_id):
        if dealt(registry, booth_id, node_id) is None:
            return None
        seed = registry.material(booth_id).share_seeds[node_id]
        return crypto.Ed25519PrivateKey.from_private_bytes(seed)

    memo = Memo()
    monkeypatch.setattr(crypto, "_verified", memo)
    monkeypatch.setattr(crypto.KeyService, "booth_share", raw_share)
    spec = small_spec(duration_ms=200.0, grace_ms=300.0)
    tallies = []
    for _ in range(2):
        memo.reset_tally()        # the tally only: the entries stay
        run(spec)
        assert set(memo.hits) <= memo.stored
        tallies.append((len(memo.hits), memo.misses))
    assert tallies[0] == tallies[1]
    assert min(tallies[1]) > 0


def test_finished_run_leaves_no_memo_or_intern_entries():
    """The memo and the interns are emptied at the end of a run too, so a
    finished run's decoded messages and checks do not outlive it."""
    run(small_spec(duration_ms=200.0, grace_ms=300.0, lambda0=2, pool=6))
    assert crypto._verified == {} and crypto._pub_cache == {}
    assert messages._interned == {}
    assert messages._booths == {} and messages._txs == {}


@pytest.mark.parametrize("size", [*range(10), *range(62, 67)])
def test_one_draw_per_batch_matches_one_draw_per_entry(size):
    """The workload draws a batch's payloads at once; they and the
    generator state after them equal one `rng.bytes` call per entry."""
    for count in (1, 3, 8, 64):
        per_entry = np.random.default_rng([size, count])
        per_batch = np.random.default_rng([size, count])
        per_entry.bytes(3)        # start off a 64-bit boundary as well
        per_batch.bytes(3)
        expected = [per_entry.bytes(size) for _ in range(count)]
        assert draw_payloads(per_batch, count, size) == expected
        assert per_batch.bit_generator.state == per_entry.bit_generator.state
        assert per_batch.bytes(7) == per_entry.bytes(7)


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

    code = cli.main(["sweep", "--dimension", "batch_size", "--values", "4,8",
                     "--duration-ms", "200", "--rate", "100",
                     "--out", str(tmp_path / "sweep")])
    assert code == 0
    cells = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["cells"]
    assert [c["value"] for c in cells] == [4, 8]

    assert cli.main(["sweep", "--dimension", "bogus", "--values", "1"]) == 2
    assert cli.main(["run", "--booth-size", "6"]) == 2
