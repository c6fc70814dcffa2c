"""vguard benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload chaos_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workloads and metrics are declared in
`BENCHMARK.json`; `perfbench/NOTES.md` says why each was chosen.

With `--trace 0` the last line of output carries every end-to-end metric;
with `--trace 1`, every per-layer metric from a traced run. The measured
work runs in one single-threaded child process (`worker.py`). `setup_s` is
the median over three set-ups: two set-up-only children and the measured
one, each timed from its start to its first timed run.

The exit code is non-zero, and no result line is printed, when the
sources are missing, a child fails, or the metrics emitted differ from
those declared. A result whose checks failed is printed with
`"correct": false` and exits non-zero too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up in reference seconds and its
    result, if any."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    scale = [float(line.split()[1]) for line in lines if line.startswith("scale ")]
    if len(ready) != 1 or len(scale) != 1:
        raise BenchError("worker never reported set-up done")
    result = None if setup_only else json.loads(lines[-1])
    return (ready[0] - started) * scale[0], result


def host_notes() -> dict:
    notes = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for package in ("numpy", "cryptography"):
        try:
            notes[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            notes[package] = "missing"
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() \
            else ref
    notes["git_sha"] = sha
    return notes


def check_declared(emitted: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in emitted.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, wrong unit {units}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vguard benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: same code path, minimal work")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "vguard" / "__init__.py").is_file():
            raise BenchError(f"no vguard sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, True, deadline)[0])
        setup, result = spawn(args, False, deadline)
        setups.append(setup)
        metrics = result["metrics"]
        if not args.trace:
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        check_declared(metrics, bench["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    notes = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "setup_samples_s": setups, **result["notes"], **host_notes()}
    print("notes " + json.dumps(notes))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
