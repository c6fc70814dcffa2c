"""Command line front end: single runs and one-dimension sweeps."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigInvalid, VGuardError
from .harness import RunSpec, load_spec_file, run, sweep, write_artifacts
from .netsim import load_byzantine_file, load_churn_file

_SWEEPABLE = ("booth_size", "pool", "batch_size", "gamma", "lambda0",
              "rate_per_s", "duration_ms")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", type=Path, help="JSON RunSpec file; flags override")
    p.add_argument("--seed", type=int)
    p.add_argument("--booth-size", type=int, dest="booth_size",
                   help="members per booth, 3f+1")
    p.add_argument("--pool", type=int, help="total vehicles in the pool")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--gamma", type=int, help="co-located proposer instances")
    p.add_argument("--delta-us", type=int, dest="delta_us",
                   help="consensus window length in microseconds")
    p.add_argument("--lambda0", type=int, help="gossip lifetime; 0 disables")
    p.add_argument("--duration-ms", type=float, dest="duration_ms")
    p.add_argument("--rate", type=float, dest="rate_per_s",
                   help="batches per second per instance")
    p.add_argument("--saturate", action="store_true",
                   help="ignore --rate and keep the ordering pipe full")
    p.add_argument("--gst-ms", type=float, dest="gst_ms",
                   help="faults and unbounded delay end at this time")
    p.add_argument("--drop-rate", type=float, dest="drop_rate")
    p.add_argument("--delay-mean-ms", type=float, dest="delay_mean_ms")
    p.add_argument("--delay-sd-ms", type=float, dest="delay_sd_ms")
    p.add_argument("--churn", type=Path, help="JSON churn schedule file")
    p.add_argument("--byzantine", type=Path,
                   help="JSON file mapping node id to behavior list")
    p.add_argument("--trace", action="store_true",
                   help="record per-message trace events")
    p.add_argument("--mode", choices=("reference", "benchmark"),
                   default="reference",
                   help="reference = deterministic simulation, "
                        "benchmark = simulated network on the wall clock")
    p.add_argument("--label", default="")
    p.add_argument("--out", type=Path, help="artifact directory")


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    spec = load_spec_file(args.spec) if args.spec else RunSpec()
    direct = {name: getattr(args, name) for name in
              ("seed", "booth_size", "pool", "batch_size", "gamma", "delta_us",
               "lambda0", "duration_ms", "rate_per_s", "label")
              if getattr(args, name, None) is not None}
    if direct:
        spec = replace(spec, **direct)
    if args.saturate:
        spec = replace(spec, rate_per_s=None)
    sim_over = {name: getattr(args, name) for name in
                ("gst_ms", "drop_rate", "delay_mean_ms", "delay_sd_ms")
                if getattr(args, name, None) is not None}
    if sim_over or args.trace:
        spec = replace(spec, sim=replace(spec.sim, trace=args.trace, **sim_over))
    if args.churn:
        spec = replace(spec, churn=tuple(load_churn_file(args.churn)))
    if args.byzantine:
        spec = replace(spec, byzantine=load_byzantine_file(args.byzantine))
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.mode == "benchmark":
        from .bench import run_benchmark
        result = run_benchmark(spec)
    else:
        result = run(spec)
    if args.out:
        paths = write_artifacts(result, args.out)
        print(f"wrote {len(paths)} artifact(s) to {args.out}")
    summary = {
        "mode": args.mode,
        "instances": [
            {k: inst[k] for k in ("instance", "committed_entries",
                                  "consensus_tps", "commit_latency_ms")}
            for inst in result.report["instances"]],
        "audits_ok": all(result.report["audits"].values()),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.dimension not in _SWEEPABLE:
        raise ConfigInvalid(
            f"sweep dimension must be one of {_SWEEPABLE}, got {args.dimension}")
    base = _spec_from_args(args)
    values = []
    for token in args.values.split(","):
        token = token.strip()
        values.append(float(token) if "." in token else int(token))
    outcome = sweep(base, args.dimension, values)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "sweep.json"
        path.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    for cell in outcome["cells"]:
        inst = cell["report"]["instances"][0]
        print(f"{args.dimension}={cell['value']}: "
              f"tps={inst['consensus_tps']} "
              f"p50={inst['commit_latency_ms']['p50']}ms "
              f"msgs/round={inst['ordering_messages']['mean_per_round']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vguard",
        description="Vehicular consensus runs over a deterministic "
                    "simulated network")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one run")
    _add_run_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="rerun while varying one field")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--dimension", required=True,
                         help=f"one of {', '.join(_SWEEPABLE)}")
    sweep_p.add_argument("--values", required=True,
                         help="comma separated values for the dimension")
    sweep_p.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
