"""Write one point of the benchmark trajectory: BENCH_<n>.json.

    python3 tools/bench_trajectory.py --out BENCH_16.json

Run from anywhere inside a checkout. For each workload in BENCHMARK.json
it runs `perfbench/run.py` as it stands (seed 1, `--trace 0`, then one
`--trace 1` pass) and keeps each result line and notes line. Beside those
it records what the traced benchmark cannot show:

- `primitives_us`: median microseconds of one real `SigningKey.sign` and
  one real `crypto.verify_raw`, with the run memo emptied between calls,
  so no call is answered from the memo;
- `signatures_per_unit`: the `SigningKey.sign` calls made by one pass
  over a workload's specs (one benchmark unit), counted in this process,
  with the batches that pass committed and the signatures per committed
  batch: a unit that commits more batches signs more.

The file also names the git head the sources came from, whether the
working tree differed from it, and the host.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vguard import crypto, harness  # noqa: E402
from vguard.codec import digest  # noqa: E402
from vguard.crypto import Role, make_identity  # noqa: E402

SEED = 1
PRIMITIVE_CALLS = 200


def bench_run(workload: str, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` invocation: its result and notes lines."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    notes = [json.loads(line[len("notes "):]) for line in lines
             if line.startswith("notes ")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return {"exit": proc.returncode, "result": result,
            "notes": notes[0] if notes else None}


def primitive_us() -> dict:
    """Median and quartiles, in us, of a real sign and a real verify."""
    _, key = make_identity(1, Role.VEHICLE, bytes(range(32)))
    payloads = [digest("bench", i) for i in range(PRIMITIVE_CALLS)]
    sigs, signs, verifies = [], [], []
    for payload in payloads:
        crypto.clear_caches()
        start = time.perf_counter()
        sigs.append(key.sign(payload))
        signs.append(time.perf_counter() - start)
    for payload, sig in zip(payloads, sigs):
        crypto.clear_caches()
        start = time.perf_counter()
        ok = crypto.verify_raw(key.verify_key, payload, sig)
        verifies.append(time.perf_counter() - start)
        assert ok
    crypto.clear_caches()
    return {name: _spread(samples) for name, samples in
            (("sign", signs), ("verify_raw", verifies))}


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles([s * 1e6 for s in samples], n=4)
    return {"median": round(median, 2), "q1": round(q1, 2),
            "q3": round(q3, 2), "calls": len(samples)}


def signatures_per_unit(workloads) -> dict:
    """`SigningKey.sign` calls over one pass of each workload's specs, and
    the batches that pass committed."""
    sign = crypto.SigningKey.sign
    count = [0]

    def counted(key, payload_digest):
        count[0] += 1
        return sign(key, payload_digest)

    out = {}
    crypto.SigningKey.sign = counted
    try:
        for name, build in sorted(workloads.items()):
            count[0] = committed = 0
            for spec in build(SEED).specs:
                report = harness.run(spec).report
                committed += sum(i["committed_batches"]
                                 for i in report["instances"])
            out[name] = {"signatures": count[0],
                         "committed_batches": committed,
                         "per_committed_batch":
                             round(count[0] / max(committed, 1), 3)}
    finally:
        crypto.SigningKey.sign = sign
    return out


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # for its dataclasses
    spec.loader.exec_module(module)
    return module.WORKLOADS


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="--seconds of each untraced benchmark run")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: {"trace0": bench_run(name, args.seconds, 0)}
            for name in names}
    for name in names:
        runs[name]["trace1"] = bench_run(name, args.seconds, 1)
    out = {
        "git_head": git("rev-parse", "HEAD") or "unknown",
        "tree_differs_from_head": bool(git("status", "--porcelain",
                                           "--untracked-files=no")),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "system": platform.platform(),
                 "nproc": os.cpu_count(),
                 "libsodium_signs": crypto._sodium_sign is not None},
        "seed": SEED,
        "seconds": args.seconds,
        "runs": runs,
        "primitives_us": primitive_us(),
        "signatures_per_unit": signatures_per_unit(load_workloads()),
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    ok = all(r["exit"] == 0 for per in runs.values() for r in per.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
