"""One benchmark process: set up a workload, time it, check it, report.

`run.py` starts this script. It imports `vguard` from the checkout's
`src/`, builds the workload from the seed, runs one warm-up and then prints
`ready <monotonic seconds>`, so the parent can time set-up from the moment
it started the process, and `scale <factor>` from a calibration reading.
With `--setup-only` it stops there. Otherwise its last line is a JSON
object with `correct`, `attempted`, `failed`, `metrics` (name -> value and
unit) and `notes`.

Untraced (`--trace 0`), it repeats the workload's unit of work until
`--seconds` have passed and reports end-to-end metrics as medians over the
repeats, in reference seconds (see `calibrate.py`). Traced (`--trace 1`),
it runs the unit once untraced and once under the span tracer, and
reports per-layer metrics, also in reference seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import vguard  # noqa: E402
from vguard import harness  # noqa: E402
from vguard.netsim import Network  # noqa: E402

from calibrate import RefClock, reading, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 3
STEP_MS = 5.0


class CalibratedNetwork(Network):
    """The harness's network, advanced in short slices of simulated time so
    that the clock can take calibration readings inside long runs. Events
    run in the same order as in one `run_until` call."""

    def __init__(self, spec, clock: RefClock):
        # the network seed exactly as harness.run derives it
        net_seq = np.random.SeedSequence(spec.seed).spawn(4)[1]
        super().__init__(replace(spec.sim, seed=int(net_seq.generate_state(1)[0])))
        self.clock = clock

    def run_until(self, until_ms: float) -> None:
        while self.now + STEP_MS < until_ms:
            super().run_until(self.now + STEP_MS)
            if self.clock.due():
                self.clock.split()
        super().run_until(until_ms)


@dataclass
class Outcome:
    """One harness run, as seen from outside."""

    wall_s: float = 0.0
    wall_ref_s: float = 0.0
    cpu_ref_s: float = 0.0
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    report: str = ""
    delivered: int = 0
    submitted: int = 0
    committed: int = 0
    committed_entries: int = 0
    duration_s: float = 0.0
    commit_latency_us: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def agreement_violations(result) -> list[str]:
    """Every correct node must hold the same batch for each ordering id and
    the same transaction for each committed window, and pass the audit."""
    bad = {node for node, _ in result.spec.byzantine}
    problems = []
    for instance in sorted({i for rt in result.runtimes.values() for i in rt.logs}):
        by_id: dict[int, bytes] = {}
        by_window: dict[int, bytes] = {}
        for node_id, runtime in sorted(result.runtimes.items()):
            if node_id in bad:
                continue
            log = runtime.logs.get(instance)
            for oid in range(1, log.max_id() + 1 if log is not None else 1):
                entry = log.get(oid)
                if entry is not None and \
                        by_id.setdefault(oid, entry.batch_hash) != entry.batch_hash:
                    problems.append(f"instance {instance} node {node_id}: "
                                    f"ordering id {oid} disagrees")
            ledger = runtime.ledgers.get(instance)
            for ts in ledger.committed_windows() if ledger is not None else ():
                tx_hash = ledger.window(ts).record.tx_hash
                if by_window.setdefault(ts, tx_hash) != tx_hash:
                    problems.append(f"instance {instance} node {node_id}: "
                                    f"window {ts} disagrees")
    for key, ok in result.report["audits"].items():
        if not ok and int(key.split(":")[1]) not in bad:
            problems.append(f"audit {key} failed")
    return problems


def run_spec(spec, clock: RefClock, sliced: bool = True) -> Outcome:
    """One run through `harness.run`, timed by the clock. Unsliced, the
    harness builds its own network and the clock reads only around the
    run."""
    outcome = Outcome()
    clock.begin()
    try:
        result = harness.run(spec, net=CalibratedNetwork(spec, clock)) \
            if sliced else harness.run(spec)
    except Exception as exc:          # any raise is a failed operation
        result = None
        outcome.error = f"{spec.label}: {type(exc).__name__}: {exc}"
    clock.split()
    outcome.wall_s = clock.wall_s
    outcome.wall_ref_s, outcome.cpu_ref_s = clock.wall_ref_s, clock.cpu_ref_s
    if result is None:
        return outcome
    report = result.report
    outcome.problems = [f"{spec.label}: {p}" for p in agreement_violations(result)]
    outcome.report = json.dumps(report, indent=2, sort_keys=True) + "\n"
    outcome.delivered = sum(result.net.delivered.values())
    outcome.submitted = sum(i["submitted_batches"] for i in report["instances"])
    outcome.committed = sum(i["committed_batches"] for i in report["instances"])
    outcome.committed_entries = sum(i["committed_entries"]
                                    for i in report["instances"])
    outcome.duration_s = spec.duration_ms / 1000.0
    for runtime in result.runtimes.values():
        for instance in runtime.proposers.values():
            outcome.commit_latency_us += instance.ctx.metrics.commit_latency_us
    return outcome


def run_unit(workload, clock: RefClock, sliced: bool = True) -> list[Outcome]:
    return [run_spec(spec, clock, sliced) for spec in workload.specs]


def count_ops(workload, units: list[list[Outcome]]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and why each failure failed. A run
    that raises or breaks agreement fails as a whole; in a batch workload
    it fails every batch it submitted."""
    attempted = failed = 0
    why = []
    for unit in units:
        for o in unit:
            why += ([o.error] if o.error else []) + o.problems
            if workload.op == "run":
                attempted += 1
                failed += not o.ok
            else:
                attempted += max(o.submitted, 1)
                lost = o.submitted - o.committed
                failed += max(o.submitted, 1) if not o.ok else lost
                if o.ok and lost:
                    why.append(f"{lost} of {o.submitted} batches not committed")
    return attempted, failed, why


def differing_reports(reference: list[Outcome], other: list[Outcome],
                      what: str) -> list[str]:
    return [f"run {idx}: report differs {what}"
            for idx, (a, b) in enumerate(zip(reference, other))
            if a.ok and b.ok and a.report != b.report]


def tail(samples, fewest: int) -> float:
    """The highest percentile that has at least ten samples above it in
    any measurement of at least `fewest` samples. Tying the percentile to
    `fewest`, not to this measurement's count, keeps it the same however
    many repeats fit in the run. Below eleven samples no percentile
    qualifies, and the tail is the highest sample."""
    if fewest < 11:
        return max(samples)
    return float(np.percentile(samples, 100.0 * (1 - 10 / fewest)))


def measure(workload, clock: RefClock, seconds: float) -> dict:
    units: list[list[Outcome]] = []
    begin = time.perf_counter()
    while len(units) < MIN_REPEATS or time.perf_counter() - begin < seconds:
        units.append(run_unit(workload, clock))
    attempted, failed, why = count_ops(workload, units)
    for unit in units[1:]:
        why += differing_reports(units[0], unit, "between repeats")
    walls = [sum(o.wall_ref_s for o in unit) for unit in units]
    runs = [o.wall_ref_s for unit in units for o in unit]
    reference = units[0]
    latencies_ms = [us / 1000.0 for o in reference for us in o.commit_latency_us]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_ref_s for o in unit)
                                    for unit in units), "s"),
        "msgs_per_s": (statistics.median(
            sum(o.delivered for o in unit) / wall
            for unit, wall in zip(units, walls)), "1/s"),
        "run_p50_s": (statistics.median(runs), "s"),
        "run_tail_s": (tail(runs, MIN_REPEATS * len(workload.specs)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "modeled_tps": (sum(o.committed_entries for o in reference)
                        / sum(o.duration_s for o in reference), "1/s"),
        "modeled_commit_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "modeled_commit_tail_ms": (tail(latencies_ms, len(latencies_ms)), "ms"),
    }
    notes = {"repeats": len(units), "runs_per_repeat": len(workload.specs),
             "run_samples": len(runs), "commit_samples": len(latencies_ms),
             "repeat_walls_ref_s": walls,
             "repeat_walls_measured_s": [sum(o.wall_s for o in u) for u in units],
             "calibration_readings": len(clock.readings),
             "calibration_median_s": statistics.median(clock.readings)}
    return {"attempted": attempted, "failed": failed, "why": why,
            "metrics": metrics, "notes": notes}


def trace(workload, clock: RefClock) -> dict:
    from tracer import Tracer, layer_metrics

    untraced = run_unit(workload, clock)
    tracer = Tracer()
    tracer.install()
    try:
        uncovered = tracer.coverage_problems()
        if uncovered:
            raise SystemExit("tracer coverage: " + "; ".join(uncovered))
        traced = run_unit(workload, clock, sliced=False)
    finally:
        tracer.uninstall()
    attempted, failed, why = count_ops(workload, [untraced, traced])
    why += differing_reports(untraced, traced, "with tracing on")
    traced_ref = sum(o.wall_ref_s for o in traced)
    untraced_ref = sum(o.wall_ref_s for o in untraced)
    scale = traced_ref / sum(o.wall_s for o in traced)
    tracer.write_spans(OUT / f"spans-{workload.name}.jsonl")
    return {"attempted": attempted, "failed": failed, "why": why,
            "metrics": layer_metrics(tracer, scale, traced_ref - untraced_ref),
            "notes": {"spans": len(tracer.spans), "traced_wall_ref_s": traced_ref,
                      "untraced_wall_ref_s": untraced_ref,
                      "traced_wall_measured_s": sum(o.wall_s for o in traced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: same code path, minimal work")
    args = parser.parse_args(argv)
    if not Path(vguard.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"vguard was imported from {vguard.__file__}, "
                         f"not from {SRC}")

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    clock = RefClock()
    warm = run_spec(workload.warmup, clock)
    if not warm.ok:
        raise SystemExit(f"warm-up failed: {warm.error or warm.problems}")
    print(f"ready {time.monotonic()!r}", flush=True)
    print(f"scale {scale(reading())!r}", flush=True)
    if args.setup_only:
        return 0

    out = trace(workload, clock) if args.trace else \
        measure(workload, clock, args.seconds)
    why = out.pop("why")
    out["correct"] = out["failed"] == 0 and not why
    out["notes"]["problems"] = why[:20]
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in out["metrics"].items()}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
