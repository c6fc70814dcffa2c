"""Release acceptance suite: eleven seeded criteria gating the whole stack.

Each criterion is one test that prints a single `[criterion NN] PASS` line
with its headline numbers (visible under `pytest -s`, or in captured output
on failure). Every run is seeded, so any failure reproduces exactly from
the printed configuration.

The safety population (criterion 1) is built once and shared with the
tiling and determinism criteria through a memoized loader; running one of
those tests alone still builds the full population. The whole file is
sized for a few minutes of single-core wall time.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np

from conftest import certify_entry, commit_window, make_batch, make_booth, make_pool
from test_gossip import bfs_depths, build_mesh, stored_nodes
from test_storage import run_storage_sequence
from vguard.crypto import KeyService
from vguard.harness import RunSpec, run, sweep
from vguard.ledger import verify_chain
from vguard.messages import CommitMsg
from vguard.netsim import Category, ChurnEvent, SimConfig
from vguard.node import ProtocolConfig

PIVOT = 1
PROPOSER = 2                 # instance 1's proposer under the default plan
DELTA_US = 100_000
DELTA_MS = DELTA_US / 1000.0

BYZANTINE_PROFILES = ("silent", "tamper_payload", "forge_quorum",
                      "equivocate_ordering_id")
# behaviors that stop the proposer itself from making progress
STALLING = {"silent", "tamper_payload", "equivocate_ordering_id"}

RUNS_PER_SIZE = 500


# -- criterion 1/4/11 shared population -----------------------------------

def safety_spec(booth_size: int, index: int) -> RunSpec:
    """Deterministically derived chaos run: random delays, losses,
    duplicates, reorders, and up to f non-pivot byzantine members."""
    rng = np.random.default_rng([101, booth_size, index])
    sim = SimConfig(
        seed=0,
        delay_mean_ms=round(float(rng.uniform(0.8, 2.5)), 3),
        delay_sd_ms=round(float(rng.uniform(0.2, 1.2)), 3),
        drop_rate=round(float(rng.uniform(0.0, 0.12)), 3),
        dup_rate=round(float(rng.uniform(0.0, 0.08)), 3),
        reorder=True,
        gst_ms=round(float(rng.uniform(120.0, 200.0)), 1),
    )
    fault_budget = (booth_size - 1) // 3
    count = int(rng.integers(0, fault_budget + 1))
    byz = []
    if count:
        candidates = np.arange(2, booth_size + 1)     # pivot stays honest
        nodes = rng.choice(candidates, size=count, replace=False)
        byz = [(int(node),
                (BYZANTINE_PROFILES[int(rng.integers(0, len(BYZANTINE_PROFILES)))],))
               for node in sorted(nodes.tolist())]
    return RunSpec(booth_size=booth_size, duration_ms=300.0, grace_ms=500.0,
                   rate_per_s=60.0, seed=int(rng.integers(1, 2**31)),
                   sim=sim, byzantine=tuple(byz))


def order_agreement_violations(result) -> list[str]:
    """Cross-node total-order check over every correct node: one batch per
    ordering id, one transaction per committed window."""
    bad = {node for node, _ in result.spec.byzantine}
    violations: list[str] = []
    id_map: dict[int, bytes] = {}
    ts_map: dict[int, bytes] = {}
    for node_id, runtime in sorted(result.runtimes.items()):
        if node_id in bad:
            continue
        log = runtime.logs.get(1)
        if log is not None:
            for oid in range(1, log.max_id() + 1):
                entry = log.get(oid)
                if entry is None:
                    continue
                first = id_map.setdefault(oid, entry.batch_hash)
                if first != entry.batch_hash:
                    violations.append(f"node {node_id}: id {oid} batch conflict")
        ledger = runtime.ledgers.get(1)
        if ledger is not None:
            for ts in ledger.committed_windows():
                tx_hash = ledger.window(ts).record.tx_hash
                first = ts_map.setdefault(ts, tx_hash)
                if first != tx_hash:
                    violations.append(f"node {node_id}: window {ts} tx conflict")
    return violations


def proposer_tiling(result) -> tuple[bool, int]:
    """Released windows must tile [0, release horizon) with commits or
    explicit empty coverage."""
    prop = result.runtimes[PROPOSER].proposers[1]
    horizon = prop.consensus.release_next_us
    ledger = result.ledger(1, PROPOSER)
    covered = set(ledger.committed_windows()) | ledger.covered_empty
    grid = set(range(0, horizon, result.spec.delta_us))
    return grid <= covered, horizon


def progress_expected(spec: RunSpec) -> bool:
    for node, behaviors in spec.byzantine:
        if node == PROPOSER and set(behaviors) & STALLING:
            return False
    return True


@lru_cache(maxsize=1)
def safety_population() -> list[dict]:
    records = []
    for booth_size in (4, 7):
        for index in range(RUNS_PER_SIZE):
            spec = safety_spec(booth_size, index)
            record = {"n": booth_size, "index": index, "seed": spec.seed,
                      "byz": spec.byzantine, "error": None,
                      "agreement": [], "tiled": True, "horizon": 0,
                      "progress_expected": progress_expected(spec)}
            try:
                result = run(spec)
            except Exception as exc:          # any raise is a criterion failure
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["agreement"] = order_agreement_violations(result)
                record["tiled"], record["horizon"] = proposer_tiling(result)
                inst = result.report["instances"][0]
                record["submitted"] = inst["submitted_batches"]
                record["committed"] = inst["committed_batches"]
            records.append(record)
    return records


def test_criterion_01_safety_under_chaos_and_faults():
    records = safety_population()
    assert len(records) == 2 * RUNS_PER_SIZE
    broken = [r for r in records if r["error"] or r["agreement"]]
    assert not broken, broken[:3]
    byz_runs = sum(1 for r in records if r["byz"])
    profiles = Counter(b for r in records for _, bs in r["byz"] for b in bs)
    print(f"[criterion 01] PASS safety: {len(records)} chaos runs "
          f"(n=4 and n=7), {byz_runs} with byzantine members "
          f"{dict(sorted(profiles.items()))}; zero order conflicts, zero "
          f"chain-check failures, zero duplicate-id aborts at correct nodes")


# -- criterion 2: equivocation is contained -------------------------------

def equivocation_spec(seed: int) -> RunSpec:
    # two proposer instances; the second proposer forks its batches so the
    # pivot alone sees the true branch. Low retry cap keeps the doomed
    # instance's abandonment inside the run window.
    return RunSpec(booth_size=4, pool=6, gamma=2, duration_ms=500.0,
                   grace_ms=300.0, rate_per_s=30.0, seed=seed,
                   strict_audit=False, protocol=ProtocolConfig(max_retries=4),
                   sim=SimConfig(seed=0),
                   byzantine=((3, ("equivocate_ordering_id",)),))


def test_criterion_02_equivocating_proposer_is_doomed():
    abandoned_total = 0
    for seed in range(100):
        result = run(equivocation_spec(1000 + seed))
        by_instance = {i["instance"]: i for i in result.report["instances"]}
        doomed = by_instance[2]
        assert doomed["ordered_batches"] == 0
        assert doomed["committed_batches"] == 0
        assert doomed["abandoned_batches"] >= 1
        abandoned_total += doomed["abandoned_batches"]
        # no correct node ever appends anything under a forked ordering id
        for node_id, runtime in result.runtimes.items():
            if node_id == 3:
                continue
            log = runtime.logs.get(2)
            assert log is None or len(log) == 0
        # the honest instance in the same pool is unaffected
        healthy = by_instance[1]
        assert healthy["committed_batches"] == healthy["submitted_batches"] > 0
    print(f"[criterion 02] PASS equivocation: 100 runs, doomed instance "
          f"ordered nothing anywhere ({abandoned_total} batches abandoned "
          f"after retries), honest instance fully committed")


# -- criterion 3: liveness after stabilization ----------------------------

def liveness_spec(seed: int) -> RunSpec:
    # unbounded sampled delays, heavy loss and duplication before the
    # stabilization time; bounded clean network afterwards
    return RunSpec(booth_size=4, duration_ms=400.0, grace_ms=1100.0,
                   rate_per_s=50.0, seed=seed,
                   sim=SimConfig(seed=0, delay_mean_ms=8.0, delay_sd_ms=25.0,
                                 drop_rate=0.25, dup_rate=0.10, reorder=True,
                                 gst_ms=200.0, gst_bound_ms=20.0))


def test_criterion_03_liveness_within_ten_windows_of_gst():
    worst_us = 0
    pre_gst_batches = 0
    for seed in range(100):
        result = run(liveness_spec(3000 + seed))
        inst = result.report["instances"][0]
        assert inst["committed_batches"] == inst["submitted_batches"] > 0
        gst_us = int(result.spec.sim.gst_ms * 1000)
        deadline_us = gst_us + 10 * result.spec.delta_us
        ledger = result.ledger(1, PROPOSER)
        metrics = result.runtimes[PROPOSER].proposers[1].ctx.metrics
        seen_pre_gst = 0
        for ts in ledger.committed_windows():
            window = ledger.window(ts)
            for entry in window.tx.entries:
                submitted = metrics._submit_us.get(entry.ordering_id)
                if submitted is None or submitted >= gst_us:
                    continue
                seen_pre_gst += 1
                assert window.record.committed_at_us <= deadline_us
                worst_us = max(worst_us,
                               window.record.committed_at_us - gst_us)
        assert seen_pre_gst > 0
        pre_gst_batches += seen_pre_gst
    print(f"[criterion 03] PASS liveness: 100 chaotic runs, every batch "
          f"committed; {pre_gst_batches} pre-stabilization batches all "
          f"landed within 10 windows (worst {worst_us / 1000.0:.1f} ms "
          f"after stabilization)")


# -- criterion 4: window tiling -------------------------------------------

def test_criterion_04_window_tiling():
    records = safety_population()
    gaps = [r for r in records
            if r["progress_expected"] and not r["error"] and not r["tiled"]]
    assert not gaps, gaps[:3]
    drained = [r for r in records
               if r["progress_expected"] and not r["error"]]
    for record in drained:
        assert record["horizon"] >= 300_000, record   # tiles past the workload
    # loss-free runs additionally pass the strict audit: gapless ordering
    # ids and full grid coverage, checked by the chain verifier itself
    for booth_size in (4, 7, 13):
        result = run(RunSpec(booth_size=booth_size, duration_ms=500.0,
                             grace_ms=300.0, rate_per_s=80.0,
                             seed=400 + booth_size))
        registry = KeyService()
        for ident in result.identities:
            registry.register(ident)
        prop = result.runtimes[PROPOSER].proposers[1]
        check = verify_chain(result.ledger(1, PROPOSER), registry, strict=True,
                             horizon_us=prop.consensus.release_next_us)
        assert check.ok, check.violations[:3]
        assert check.windows_checked > 0 and check.entries_checked > 0
    print(f"[criterion 04] PASS tiling: {len(drained)} progressing chaos "
          f"runs tiled [0, horizon) with commits or covered empties; strict "
          f"chain audit green on loss-free runs at n=4, 7, 13")


# -- criterion 5: linear message complexity -------------------------------

def consensus_counts_per_window(result) -> list[int]:
    per_ts: dict[int, int] = {}
    for key, count in result.net.instance_counts(Category.CONSENSUS).items():
        if isinstance(key, tuple) and key[0] == 1:
            per_ts[key[1]] = per_ts.get(key[1], 0) + count
    return sorted(per_ts.values())


def test_criterion_05_linear_message_complexity():
    sizes = (4, 7, 13)
    ordering_means = []
    for booth_size in sizes:
        result = run(RunSpec(booth_size=booth_size, duration_ms=500.0,
                             grace_ms=300.0, rate_per_s=80.0, seed=500))
        bound = 3 * (booth_size - 1)
        stats = result.report["instances"][0]["ordering_messages"]
        assert stats["max_per_round"] <= bound
        assert stats["mean_per_round"] == bound
        ordering_means.append(stats["mean_per_round"])
        windows = result.report["instances"][0]["committed_windows"]
        consensus = consensus_counts_per_window(result)
        assert len(consensus) == windows > 0
        assert all(count == bound for count in consensus)
    coeffs = np.polyfit(sizes, ordering_means, 1)
    fitted = np.polyval(coeffs, sizes)
    residual = max(abs(f - m) / m for f, m in zip(fitted, ordering_means))
    assert residual <= 0.05
    print(f"[criterion 05] PASS messages: per round exactly 3(n-1) = "
          f"{[3 * (n - 1) for n in sizes]} for n={list(sizes)}; linear fit "
          f"slope {coeffs[0]:.3f}, max residual {residual:.2%}")


# -- criterion 6: batch-size sweep shape ----------------------------------

def test_criterion_06_batch_sweep_peaks_then_declines():
    base = RunSpec(booth_size=4, duration_ms=500.0, grace_ms=300.0,
                   rate_per_s=None, seed=7,
                   sim=SimConfig(seed=0, delay_sd_ms=0.0))
    betas = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    out = sweep(base, "batch_size", betas)
    tps = [cell["report"]["instances"][0]["consensus_tps"]
           for cell in out["cells"]]
    marginals = [(tps[i + 1] - tps[i]) / (betas[i + 1] - betas[i])
                 for i in range(len(tps) - 1)]
    assert all(a > b for a, b in zip(marginals, marginals[1:])), marginals
    peak = int(np.argmax(tps))
    assert 0 < peak < len(tps) - 1, (betas[peak], tps)
    assert tps[-1] < tps[peak]
    print(f"[criterion 06] PASS batching: saturated throughput peaks at "
          f"batch size {betas[peak]} ({tps[peak]:.0f} entries/s), marginal "
          f"gain strictly diminishing across {betas}, declines to "
          f"{tps[-1]:.0f} at {betas[-1]}")


# -- criterion 7: churn sensitivity ---------------------------------------

def churn_schedule(members_per_window: int, windows: int) -> tuple[ChurnEvent, ...]:
    """Rotating vehicles leave mid-window and return just after the next
    boundary, so each window sees the configured number of changes."""
    vehicles = (3, 4, 5)
    events = []
    cursor = 0
    for window in range(windows):
        base = window * DELTA_MS
        for j in range(members_per_window):
            vehicle = vehicles[(cursor + j) % len(vehicles)]
            events.append(ChurnEvent(at_ms=base + 40.0, node_id=vehicle, up=False))
            events.append(ChurnEvent(at_ms=base + 105.0, node_id=vehicle, up=True))
        cursor += members_per_window
    return tuple(events)


def test_criterion_07_churn_latency_split_on_fault_budget():
    base = dict(booth_size=4, pool=5, duration_ms=1200.0, grace_ms=600.0,
                rate_per_s=100.0, seed=21, strict_audit=False,
                sim=SimConfig(seed=0, delay_sd_ms=0.0))
    results = {}
    for label, churn in (("static", ()),
                         ("c1", churn_schedule(1, 12)),
                         ("c2", churn_schedule(2, 12))):
        result = run(RunSpec(**base, churn=churn))
        inst = result.report["instances"][0]
        assert inst["committed_batches"] == inst["submitted_batches"] > 0
        results[label] = inst["commit_latency_ms"]["p50"]
    within = results["c1"] / results["static"]
    above = results["c2"] / results["static"]
    assert within <= 1.10, results
    assert above >= 1.25, results
    print(f"[criterion 07] PASS churn: median commit latency static "
          f"{results['static']:.1f} ms, one change per window "
          f"{results['c1']:.1f} ms ({within:.2f}x, within 10%), two changes "
          f"{results['c2']:.1f} ms ({above:.2f}x, well above 25%)")


# -- criterion 8: cross-booth equivalence ---------------------------------

def dynamic_spec(seed: int) -> RunSpec:
    # churn fires in the quiet gap before each boundary: nothing is in
    # flight, so no ordering ids burn and the windows fill identically
    # while the serving booth keeps moving
    events = []
    vehicles = (3, 4, 5, 6)
    for window in range(6):
        vehicle = vehicles[window % len(vehicles)]
        events.append(ChurnEvent(at_ms=window * DELTA_MS + 96.5,
                                 node_id=vehicle, up=False))
        events.append(ChurnEvent(at_ms=window * DELTA_MS + 126.5,
                                 node_id=vehicle, up=True))
    return RunSpec(booth_size=4, pool=7, duration_ms=600.0, grace_ms=400.0,
                   rate_per_s=100.0, seed=seed, strict_audit=False,
                   sim=SimConfig(seed=0, delay_sd_ms=0.0), churn=tuple(events))


def static_reference_spec(seed: int) -> RunSpec:
    return RunSpec(booth_size=4, pool=4, duration_ms=600.0, grace_ms=400.0,
                   rate_per_s=100.0, seed=seed,
                   sim=SimConfig(seed=0, delay_sd_ms=0.0))


def committed_tx_hashes(result) -> dict[int, str]:
    ledger = result.ledger(1, PROPOSER)
    return {ts: ledger.window(ts).record.tx_hash.hex()
            for ts in ledger.committed_windows()}


def test_criterion_08_dynamic_booths_match_static_reference():
    moves = []
    for seed in range(50):
        dynamic = run(dynamic_spec(8000 + seed))
        static = run(static_reference_spec(8000 + seed))
        assert committed_tx_hashes(dynamic) == committed_tx_hashes(static)
        assert len(committed_tx_hashes(dynamic)) >= 5
        booth_changes = dynamic.report["instances"][0]["booth_changes"]
        assert booth_changes >= 2        # the dynamic run really moved
        moves.append(booth_changes)
    print(f"[criterion 08] PASS equivalence: 50 seeds, churned multi-booth "
          f"ledgers equal the single-booth reference per-window transaction "
          f"hash for hash (median {int(np.median(moves))} booth moves/run)")


# -- criterion 9: gossip depth and isolation ------------------------------

def gossip_commit(pool):
    booth = make_booth(pool, [1, 2, 3, 4], proposer_id=1, pivot_id=2)
    entry = certify_entry(pool, booth, 1, make_batch(pool))
    record, tx = commit_window(pool, booth, 0, DELTA_US, [entry])
    msg = CommitMsg(instance_id=1, sender=1, window_start_us=0,
                    booth_hash=record.booth_hash,
                    cert=record.cert, tx_hash=record.tx_hash)
    return msg, tx


def test_criterion_09_gossip_reaches_exactly_lifetime_depth():
    pool = make_pool(list(range(1, 15)), seed=93, proposer_id=1, pivot_id=2)
    commit, tx = gossip_commit(pool)
    node_ids = sorted(pool.keys)
    checks = 0
    for topology in range(20):
        rng = np.random.default_rng([909, topology])
        peers = {
            node: sorted(int(p) for p in rng.choice(
                [m for m in node_ids if m != node],
                size=int(rng.integers(2, 5)), replace=False))
            for node in node_ids
        }
        depths = bfs_depths(peers, 1)
        for lifetime in (1, 2, 3):
            mesh = build_mesh(pool, peers, lifetime=lifetime)
            mesh.agents[2].expect_acks(commit.commit_hash())
            mesh.agents[1].init_gossip(commit, tx, exclude=set())
            mesh.run()
            expected = {n for n, d in depths.items() if 1 <= d <= lifetime}
            assert stored_nodes(mesh, 1) == expected, (topology, lifetime)
            checks += 1

    base = RunSpec(booth_size=4, pool=8, duration_ms=500.0, grace_ms=400.0,
                   rate_per_s=100.0, seed=95, lambda0=2)
    chatty = run(base)
    quiet = run(replace(base, lambda0=0))
    assert sum(s["stored"] for s in chatty.report["gossip"].values()) > 0
    for node in range(1, 9):
        for result_a, result_b in ((chatty, quiet),):
            ledger_a = result_a.ledger(1, node)
            ledger_b = result_b.ledger(1, node)
            lines_a = ("\n".join(ledger_a.export_lines(result_a.identities))
                       if ledger_a else "")
            lines_b = ("\n".join(ledger_b.export_lines(result_b.identities))
                       if ledger_b else "")
            assert lines_a == lines_b, f"gossip perturbed node {node}"
    print(f"[criterion 09] PASS gossip: {checks} topology/lifetime cells "
          f"match the breadth-first oracle exactly; disabling gossip leaves "
          f"all ledgers byte-identical")


# -- criterion 10: storage lifecycle --------------------------------------

def test_criterion_10_storage_lifecycle_invariants():
    totals: Counter = Counter()
    for seed in range(10_000):
        steps = 10 + seed % 41
        for op, count in run_storage_sequence(seed, steps).items():
            totals[op] += count
    assert totals["register"] > 50_000
    assert totals["rejected"] > 0
    assert totals["cleanup"] > 0
    print(f"[criterion 10] PASS storage: 10000 random sequences "
          f"({sum(totals.values())} operations: {dict(sorted(totals.items()))}) "
          f"held layer exclusivity and retention invariants after every step")


# -- criterion 11: determinism --------------------------------------------

def run_fingerprint(spec: RunSpec) -> tuple[str, dict[int, str]]:
    result = run(spec)
    report = json.dumps(result.report, sort_keys=True)
    ledgers = {}
    for node_id, runtime in sorted(result.runtimes.items()):
        ledger = runtime.ledgers.get(1)
        if ledger is not None:
            ledgers[node_id] = "\n".join(ledger.export_lines(result.identities))
    return report, ledgers


def test_criterion_11_repeated_runs_are_byte_identical():
    picks = []
    for booth_size in (4, 7):
        with_byz = without_byz = None
        for index in range(RUNS_PER_SIZE):
            spec = safety_spec(booth_size, index)
            if spec.byzantine and with_byz is None:
                with_byz = spec
            if not spec.byzantine and without_byz is None:
                without_byz = spec
            if with_byz is not None and without_byz is not None:
                break
        picks.extend([without_byz, with_byz])
    assert len(picks) == 4
    for spec in picks:
        first_report, first_ledgers = run_fingerprint(spec)
        second_report, second_ledgers = run_fingerprint(spec)
        assert first_report == second_report
        assert first_ledgers == second_ledgers
        assert first_ledgers            # nodes actually held state
    print(f"[criterion 11] PASS determinism: 4 safety-population configs "
          f"(clean and byzantine, n=4 and n=7) replayed byte-identically "
          f"in reports and every node ledger")
