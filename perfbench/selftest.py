"""Quick self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload declared in `BENCHMARK.json` it runs `run.py --tiny`
untraced and traced. That is each workload's real code path with minimal
work. It asserts that the result line passes its checks and names every
declared metric with its declared unit. It then copies `BENCHMARK.json`
and `perfbench/` into a directory without the sources and asserts that
`run.py` fails there without printing a result. Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_workload(bench: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    require(sorted(result) == ["attempted", "correct", "failed", "metrics"],
            str(result))
    require(result["correct"] is True and result["failed"] == 0, str(result))
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{workload}: attempted")
    declared = bench["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    for metric in declared:
        got = emitted.get(metric["name"])
        require(got is not None, f"{workload}: {metric['name']} not emitted")
        require(got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit")
        require(isinstance(got["value"], (int, float)), metric["name"])
    require(len(emitted) == len(declared), f"{workload}: undeclared metrics")
    if not trace:
        for metric in declared:
            require(emitted[metric["name"]]["value"] > 0, f"{metric['name']} is 0")
    print(f"ok  {workload} trace={trace}: {len(emitted)} metrics")


def check_without_sources() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", SCRATCH / "BENCHMARK.json")
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SCRATCH, "chaos_mix", 0)
        require(proc.returncode != 0, "benchmark passed without sources")
        require(not proc.stdout.strip(), "benchmark printed a result without sources")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("ok  fails without sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, workload["name"], trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
