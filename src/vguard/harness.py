"""Benchmark harness: build a cluster, drive workload, report.

A run is described by a RunSpec, executed deterministically from its seed,
and summarized into a plain-dict report safe to serialize and diff: the
same spec always yields byte-identical reports, ledgers, and traces. The
harness wires the whole stack (simulated network, runtimes, membership
units, workload sources, churn and byzantine schedules), runs the clock,
audits every correct node's ledger, and reports throughput and every
count from the run's tally (see `Network`), and latency percentiles from
each proposer's samples.

Sweeps rerun a base spec across one varying dimension, deriving a fresh
seed per cell so cells are independent but reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from typing import Iterator, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, crypto
from .crypto import Identity, KeyService, Role, SigningKey, make_identity
from .errors import POSITIVE, ConfigInvalid, VerificationFailed
from .ledger import ChainCheck, DataBatch, Ledger, verify_chain
from .mmu import MembershipUnit, MmuConfig
from .netsim import (Category, ChurnEvent, Network, NodeEnv, SimConfig,
                     byzantine_schedule, churn_events)
from .node import NodeRuntime, ProtocolConfig
from .storage import RetentionPolicy, StorageMaster

PIVOT_ID = 1
_ABSTRACT = {int: Integral, float: Real}      # so numpy scalars pass too


@dataclass(frozen=True)
class RunSpec:
    """A run's settings, each declared once by its field: `check` and
    `spec_from_dict` read its annotation and metadata."""

    booth_size: int = 4                  # 3f+1 members per booth
    pool: Optional[int] = None           # total vehicles; defaults to booth_size
    batch_size: int = field(default=8, metadata=POSITIVE)  # entries per round
    gamma: int = 1                       # co-located proposer instances
    delta_us: int = field(default=100_000, metadata=POSITIVE)  # window length
    lambda0: int = 0                     # gossip lifetime; 0 disables gossip
    tau_us: int = 24 * 3600 * 1_000_000  # temp storage age bound
    duration_ms: float = field(default=1_000.0, metadata=POSITIVE)  # workload
    grace_ms: float = 400.0              # drain time after workload stops
    # batches per second; None saturates
    rate_per_s: Optional[float] = field(default=200.0, metadata=POSITIVE)
    payload_bytes: int = 64
    seed: int = 1
    sim: SimConfig = field(default_factory=lambda: SimConfig(seed=0))
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    mmu: MmuConfig = field(default_factory=MmuConfig)
    churn: tuple[ChurnEvent, ...] = field(default=(),
                                          metadata={"read": churn_events})
    byzantine: tuple[tuple[int, tuple[str, ...]], ...] = field(
        default=(), metadata={"read": byzantine_schedule})
    strict_audit: bool = True
    label: str = ""

    def validate(self) -> "RunSpec":
        check(self)
        if self.sim.seed:
            raise ConfigInvalid(f"sim.seed must be 0, got {self.sim.seed!r}: "
                                "`seed` seeds the run, its network included")
        if self.booth_size < 4 or (self.booth_size - 1) % 3 != 0:
            raise ConfigInvalid(
                f"booth size must be 3f+1 with f >= 1, got {self.booth_size}")
        pool = self.pool_size
        if pool < self.booth_size:
            raise ConfigInvalid(f"pool {pool} smaller than booth {self.booth_size}")
        if self.gamma < 1 or self.gamma > pool - 1:
            raise ConfigInvalid(f"gamma must be in [1, pool-1], got {self.gamma}")
        named = {e.node_id for e in self.churn} | {n for n, _ in self.byzantine}
        outside = sorted(n for n in named if not 1 <= n <= pool)
        if outside:
            raise ConfigInvalid(f"churn and byzantine schedules name nodes "
                                f"{outside} outside the pool 1..{pool}")
        for event in self.churn:
            if not (math.isfinite(event.at_ms) and event.at_ms >= 0):
                raise ConfigInvalid(f"churn at_ms must be finite and not "
                                    f"negative, got {event.at_ms!r}")
        return self

    @property
    def pool_size(self) -> int:
        return self.pool if self.pool is not None else self.booth_size


@cache
def _settings(cls) -> tuple[tuple[str, type, bool, Mapping], ...]:
    """(name, type, optional, metadata) of each field of a config dataclass
    by its resolved annotation: `Optional[T]` gives T, `tuple[...]` tuple."""
    hints, out = get_type_hints(cls), []
    for f in fields(cls):
        hint = hints[f.name]
        optional = type(None) in get_args(hint)
        kind = get_args(hint)[0] if optional else get_origin(hint) or hint
        out.append((f.name, kind, optional, f.metadata))
    return tuple(out)


def check(config, prefix: str = "") -> None:
    """Check every field of a config dataclass, and of the configs nested
    in it, against its annotation; None passes where it is `Optional`. A
    number must also be finite and at least zero, above zero if its
    metadata is `POSITIVE`, below one if `BELOW_ONE` and at most one if
    `AT_MOST_ONE`. A message names the field by its dotted path."""
    for name, kind, optional, meta in _settings(type(config)):
        value, where = getattr(config, name), prefix + name
        if value is None and optional:
            continue
        if (not isinstance(value, _ABSTRACT.get(kind, kind))
                or (isinstance(value, bool) and kind is not bool)):
            raise ConfigInvalid(f"{where} must be {kind.__name__}, got {value!r}")
        if is_dataclass(kind):
            check(value, where + ".")
        elif kind in _ABSTRACT:
            if not isinstance(value, Integral) and not math.isfinite(value):
                raise ConfigInvalid(f"{where} must be finite, got {value!r}")
            if meta.get("positive") and value <= 0:
                raise ConfigInvalid(f"{where} must be positive, got {value!r}")
            if value < 0:
                raise ConfigInvalid(f"{where} must not be negative, got {value!r}")
            if value >= meta.get("below", math.inf):
                raise ConfigInvalid(
                    f"{where} must be below {meta['below']}, got {value!r}")
            if value > meta.get("at_most", math.inf):
                raise ConfigInvalid(f"{where} must be at most "
                                    f"{meta['at_most']}, got {value!r}")


@dataclass
class InstancePlan:
    """Which nodes propose and pivot for one ordering instance."""

    instance_id: int
    proposer_id: int
    pivot_id: int


def plan_instances(spec: RunSpec) -> list[InstancePlan]:
    """Instance k's proposer is the k-th non-pivot node; the pivot is global."""
    return [InstancePlan(instance_id=k, proposer_id=PIVOT_ID + k,
                         pivot_id=PIVOT_ID)
            for k in range(1, spec.gamma + 1)]


def default_overlay(node_ids: list[int]) -> dict[int, list[int]]:
    """Ring plus second-neighbor chords; degree four, deterministic."""
    n = len(node_ids)
    out: dict[int, list[int]] = {}
    for idx, node in enumerate(node_ids):
        peers = {node_ids[(idx + d) % n] for d in (-2, -1, 1, 2)} - {node}
        out[node] = sorted(peers)
    return out


# Batches a workload draws and frames at once: enough to spread the fixed
# cost of one draw, few enough that a short run leaves few unused.
BATCH_BLOCK = 16


def batch_stream(rng: np.random.Generator, count: int, size: int,
                 first_seq: int) -> Iterator[DataBatch]:
    """Endless batches of `count` entries of `size` bytes, numbered on from
    `first_seq`, drawn and framed `BATCH_BLOCK` batches at a time. The
    payloads, and the generator state after each block, are those of one
    `rng.bytes(size)` call per entry: that call keeps the first `size`
    bytes of ceil(size / 4) 32-bit words, but at least one, and PCG64 keeps
    its spare 32-bit half in its state, so one `integers` call over many
    rows of words draws the words of one call per row."""
    words = max(1, -(-size // 4))
    while True:
        block = rng.integers(0, 1 << 32, size=(BATCH_BLOCK * count, words),
                             dtype=np.uint32)
        payloads = block.astype("<u4", copy=False).view(np.uint8)[:, :size]
        yield from DataBatch.consecutive(first_seq, payloads, count)
        first_seq += BATCH_BLOCK * count


class Workload:
    """Feeds one proposer instance with fixed-size batches."""

    def __init__(self, instance, spec: RunSpec, rng: np.random.Generator):
        self.instance = instance
        self.spec = spec
        # not a method: the stream must hold no reference back to the workload
        self._batches = batch_stream(rng, spec.batch_size, spec.payload_bytes,
                                     first_seq=1)
        self.stopped = False

    def start(self) -> None:
        env = self.instance.ctx.env
        if self.spec.rate_per_s is not None:
            env.every(1000.0 / self.spec.rate_per_s, self._submit_one)
        else:
            self.instance.ordering.on_capacity = self._fill
            env.after(0.5, self._fill)

    def stop(self) -> None:
        self.stopped = True

    def _submit_one(self) -> None:
        if self.stopped:
            return
        self.instance.ctx.count("submitted_batches")
        self.instance.ordering.submit(next(self._batches))

    def _fill(self) -> None:
        if self.stopped:
            return
        cap = self.spec.protocol.max_inflight * 2
        while self.instance.ordering.inflight() < cap:
            self.instance.ctx.count("submitted_batches")
            self.instance.ordering.submit(next(self._batches))


@dataclass
class RunResult:
    """A finished run: its spec, report, network, nodes and audits."""

    spec: RunSpec
    report: dict
    net: Network
    runtimes: dict[int, NodeRuntime]
    audits: dict[tuple[int, int], ChainCheck]
    identities: list[Identity]

    def ledger(self, instance_id: int, node_id: int) -> Optional[Ledger]:
        return self.runtimes[node_id].ledgers.get(instance_id)


def _build_identities(spec: RunSpec, seed_seq: np.random.SeedSequence
                      ) -> tuple[list[Identity], dict[int, SigningKey], KeyService]:
    registry = KeyService()
    rng = np.random.default_rng(seed_seq)
    proposer_ids = {p.proposer_id for p in plan_instances(spec)}
    identities, keys = [], {}
    for node_id in range(1, spec.pool_size + 1):
        if node_id == PIVOT_ID:
            role = Role.PIVOT
        elif node_id in proposer_ids:
            role = Role.PROPOSER
        else:
            role = Role.VEHICLE
        ident, key = make_identity(node_id, role, rng.bytes(32))
        registry.register(ident)
        identities.append(ident)
        keys[node_id] = key
    return identities, keys, registry


def run(spec: RunSpec, net=None) -> RunResult:
    """Execute one run. `net` defaults to a fresh simulated Network; pass
    one driven by another scheduler (see bench.WallClock) to reuse the
    setup, workload, and audit machinery over a different clock. The run
    memo (`crypto.recall`) starts empty and is emptied again at the end, so
    no run sees another run's entries and none outlives its run."""
    crypto.clear_caches()
    spec = spec.validate()
    master = np.random.SeedSequence(spec.seed)
    key_seq, net_seed_seq, workload_seq = master.spawn(3)
    net_seed = int(net_seed_seq.generate_state(1)[0])

    identities, keys, registry = _build_identities(spec, key_seq)
    node_ids = [ident.node_id for ident in identities]
    if net is None:
        net = Network(replace(spec.sim, seed=net_seed))

    overlay = default_overlay(node_ids)
    byzantine = dict(spec.byzantine)
    runtimes: dict[int, NodeRuntime] = {}
    for node_id in node_ids:
        env = NodeEnv(net, node_id)
        runtimes[node_id] = NodeRuntime(
            node_id, env, registry, keys[node_id], spec.protocol,
            spec.delta_us,
            storage=StorageMaster(RetentionPolicy(temp_ttl_us=spec.tau_us)),
            gossip_peers=overlay.get(node_id, []),
            gossip_lifetime=spec.lambda0, byzantine=byzantine.get(node_id, ()))

    workloads: list[Workload] = []
    wl_children = workload_seq.spawn(spec.gamma)
    for plan, wl_child in zip(plan_instances(spec), wl_children):
        runtime = runtimes[plan.proposer_id]
        mmu = MembershipUnit(
            instance_id=plan.instance_id, proposer_id=plan.proposer_id,
            pivot_id=plan.pivot_id, pool=identities,
            booth_size=spec.booth_size, config=spec.mmu, env=runtime.env)
        instance = runtime.add_proposer(plan.instance_id, mmu)
        workloads.append(Workload(instance, spec,
                                  np.random.default_rng(wl_child)))

    for runtime in runtimes.values():
        runtime.start()
    for workload in workloads:
        workload.start()
    net.inject_churn(list(spec.churn))

    net.run_until(spec.duration_ms)
    for workload in workloads:
        workload.stop()
    net.run_until(spec.duration_ms + spec.grace_ms)

    audits = _audit(spec, runtimes, registry)
    report = _report(spec, net, runtimes, audits)
    # a finished run is one web of callbacks; cutting it lets reference
    # counting free the run as soon as its result is dropped
    net.close()
    for runtime in runtimes.values():
        runtime.close()
    crypto.clear_caches()
    return RunResult(spec=spec, report=report, net=net, runtimes=runtimes,
                     audits=audits, identities=identities)


def _audit(spec: RunSpec, runtimes: dict[int, NodeRuntime],
           registry: KeyService) -> dict[tuple[int, int], ChainCheck]:
    """verify_chain on every ledger every correct node holds. An honest
    proposer's ledger faces the strict window-tiling audit when the run had
    no churn, whatever other nodes did. That audit accepts only the gaps
    the proposer explains: ordering ids it retired on a timeout or a lost
    booth, and the windows it gave up, with their entries' ids."""
    bad = {node_id for node_id, _ in spec.byzantine}
    audits: dict[tuple[int, int], ChainCheck] = {}
    for plan in plan_instances(spec):
        for node_id, runtime in runtimes.items():
            ledger = runtime.ledgers.get(plan.instance_id)
            if ledger is None:
                continue
            strict = (spec.strict_audit and node_id == plan.proposer_id
                      and node_id not in bad and not spec.churn)
            horizon, retired, given_up = None, frozenset(), frozenset()
            if strict:
                prop = runtime.proposers[plan.instance_id]
                horizon = prop.consensus.release_next_us
                given_up = prop.consensus.retired_ids
                retired = prop.ordering.retired_ids.union(
                    entry.ordering_id for ts in given_up for entry
                    in prop.ctx.log.window_slice(ts, ts + spec.delta_us))
            check = verify_chain(ledger, registry, strict=strict,
                                 horizon_us=horizon, retired_ids=retired,
                                 given_up=given_up)
            audits[(plan.instance_id, node_id)] = check
            if not check.ok and node_id not in bad:
                raise VerificationFailed(
                    f"instance {plan.instance_id} node {node_id}: "
                    f"{check.first_violation}")
    return audits


_PERCENTILES = {"p50": 50 / 100, "p95": 95 / 100, "p99": 99 / 100}


def _percentiles_ms(values_us: list[int]) -> dict[str, float]:
    """p50, p95 and p99 of the samples in ms, to 3 places: numpy's default
    ("linear") percentile made with its float operations, so the values
    are `np.percentile`'s, without the `numpy.ma` import it costs. The
    samples are sorted before they are scaled, which orders them alike."""
    if not values_us:
        return dict.fromkeys(_PERCENTILES, 0.0)
    ordered = sorted(values_us)
    last = len(ordered) - 1
    out = {}
    for name, q in _PERCENTILES.items():
        at = last * q                       # between samples `below` and next
        below = math.floor(at)
        a = ordered[below] / 1000.0
        b = ordered[min(below + 1, last)] / 1000.0
        t, diff = at - below, b - a
        out[name] = round(b - diff * (1 - t) if t >= 0.5 else a + diff * t, 3)
    return out


def _ordering_message_stats(net: Network, instance_id: int) -> dict:
    per_round: dict[int, int] = {}
    for key, count in net.instance_counts(Category.ORDERING).items():
        if isinstance(key, tuple) and len(key) == 2 and key[0] == instance_id:
            per_round[key[1]] = per_round.get(key[1], 0) + count
    if not per_round:
        return {"rounds": 0, "mean_per_round": 0.0, "max_per_round": 0}
    counts = list(per_round.values())
    return {"rounds": len(counts),
            "mean_per_round": round(sum(counts) / len(counts), 3),
            "max_per_round": max(counts)}


# what each proposer instance and each gossip agent reports of `Network.events`
INSTANCE_EVENTS = ("submitted_batches", "ordered_batches", "ordered_entries",
                   "committed_windows", "committed_batches", "committed_entries",
                   "abandoned_batches", "stalled_windows", "booth_changes")
GOSSIP_EVENTS = ("stored", "forwarded", "acks_sent", "acks_received")


def _report(spec: RunSpec, net: Network, runtimes: dict[int, NodeRuntime],
            audits: dict[tuple[int, int], ChainCheck]) -> dict:
    duration_s = spec.duration_ms / 1000.0
    instances = []
    for plan in plan_instances(spec):
        iid, runtime = plan.instance_id, runtimes[plan.proposer_id]
        metrics = runtime.proposers[iid].ctx.metrics
        counts = {event: net.events[event, iid] for event in INSTANCE_EVENTS}
        instances.append({
            "instance": iid,
            "proposer": plan.proposer_id,
            **counts,
            "ordering_tps": round(counts["ordered_entries"] / duration_s, 3),
            "consensus_tps": round(counts["committed_entries"] / duration_s, 3),
            "ordering_latency_ms": _percentiles_ms(metrics.ordering_latency_us),
            "commit_latency_ms": _percentiles_ms(metrics.commit_latency_us),
            "covered_empty_windows": len(runtime.ledgers[iid].covered_empty),
            "ordering_messages": _ordering_message_stats(net, iid),
        })
    rejects: dict[str, dict[str, int]] = {}
    for (node_id, reason), count in sorted(net.drops.items()):
        if not reason.startswith("gossip."):     # not reported yet
            rejects.setdefault(str(node_id), {})[reason] = count
    return {
        "version": __version__,
        "label": spec.label,
        "seed": spec.seed,
        "config": {
            "booth_size": spec.booth_size,
            "pool": spec.pool_size,
            "batch_size": spec.batch_size,
            "gamma": spec.gamma,
            "delta_us": spec.delta_us,
            "lambda0": spec.lambda0,
            "duration_ms": spec.duration_ms,
            "rate_per_s": spec.rate_per_s,
            "gst_ms": spec.sim.gst_ms,
            "drop_rate": spec.sim.drop_rate,
            "byzantine": {str(node_id): list(behaviors)
                          for node_id, behaviors in spec.byzantine},
        },
        "instances": instances,
        "messages_by_category": dict(sorted(net.totals_by_category().items())),
        "counters": rejects,
        "gossip": {str(n): {event: net.events[event, n]
                            for event in GOSSIP_EVENTS}
                   for n in sorted(runtimes) if runtimes[n].gossip is not None},
        "audits": {f"{i}:{n}": bool(check.ok)
                   for (i, n), check in sorted(audits.items())},
        "storage": {str(n): runtimes[n].storage.totals()
                    for n in sorted(runtimes) if runtimes[n].storage},
    }


def write_artifacts(result: RunResult, outdir: Path) -> list[Path]:
    """report.json, report.csv, per-node ledgers, and the trace if taken."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(result.report, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    written.append(report_path)

    csv_path = outdir / "report.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        rows = [_flatten(inst) for inst in result.report["instances"]]
        if rows:
            writer = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    written.append(csv_path)

    for plan in plan_instances(result.spec):
        for node_id, runtime in sorted(result.runtimes.items()):
            ledger = runtime.ledgers.get(plan.instance_id)
            if ledger is None:
                continue
            path = outdir / f"ledger-{plan.instance_id}-{node_id}.jsonl"
            ledger.export_jsonl(path, result.identities)
            written.append(path)

    if result.net.config.trace:
        trace_path = outdir / "trace.jsonl"
        with trace_path.open("w", encoding="utf-8") as fh:
            for event in result.net.trace:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        written.append(trace_path)
    return written


def _flatten(obj: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, f"{name}."))
        else:
            out[name] = value
    return out


def seed_for_cell(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def sweep(base: RunSpec, dimension: str, values: list) -> dict:
    """Rerun the base spec once per value of one RunSpec field."""
    cells = []
    for index, value in enumerate(values):
        cell_spec = replace(base, **{dimension: value},
                            seed=seed_for_cell(base.seed, index),
                            label=f"{dimension}={value}")
        result = run(cell_spec)
        cells.append({"value": value, "report": result.report})
    return {"dimension": dimension, "base_seed": base.seed, "cells": cells}


def read_json_file(path: Path):
    """The value a JSON file holds; a path that cannot be read, or a file
    that is not JSON, is refused."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:            # a JSON or a UTF-8 decoding error
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from None


def load_spec_file(path: Path) -> RunSpec:
    """RunSpec from a JSON file; nested sim/protocol/mmu dicts supported."""
    return spec_from_dict(read_json_file(path))


def spec_from_dict(data: dict, cls=RunSpec, prefix: str = ""):
    """A RunSpec, or the nested config `cls` at `prefix`, from a JSON
    object, read by each field's annotation: a nested config from a nested
    object, a schedule by its `read` parser, and any other value as it is,
    for `RunSpec.validate` to check. A value that is not an object, or an
    unknown key, is refused by its dotted path."""
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{prefix[:-1] or 'a spec'} must be a JSON object")
    declared = {name: (kind, meta) for name, kind, _, meta in _settings(cls)}
    values = {}
    for name, value in data.items():
        if name not in declared:
            raise ConfigInvalid(f"unknown spec field {prefix}{name}")
        kind, meta = declared[name]
        if is_dataclass(kind):
            value = spec_from_dict(value, kind, f"{prefix}{name}.")
        elif "read" in meta:
            value = meta["read"](value)
        values[name] = value
    return cls(**values)
