"""Write one point of the benchmark trajectory: BENCH_<n>.json.

    python3 tools/bench_trajectory.py --out BENCH_17.json

Run from anywhere inside a checkout. For each workload in BENCHMARK.json
it runs `perfbench/run.py` as it stands (seed 1, `--trace 0`, then one
`--trace 1` pass) and keeps each result line and notes line. Beside those
it records what the traced benchmark cannot show:

- `primitives_us`: median microseconds of one real `SigningKey.sign`, one
  real `crypto.verify_raw`, one `aggregate` and one
  `BoothProfile.check_certified` for a 4- and a 7-member booth, one
  `verify_chain` window of `WINDOW_ENTRIES` entries (a 4-member booth),
  one encode and one `messages._parse` of each of the eleven message types
  (the commit messages and gossip carry that window), and one scheduler
  event (`Scheduler.at`, then the pop that runs it, a no-op, with
  `SCHEDULER_PENDING` later events in the queue), the commit path's
  `tx_hash_over` and `prune_memberships` over a window of `LONG_WINDOW`
  entries in one booth, and the construction of the records built most
  often (`build_<Type>`: the mean of `BUILD_CALLS` calls per sample, one
  being too quick to time), with the run memo emptied between calls, so
  no call is answered from the memo. Each encode is of a fresh message
  whose transaction is packed afresh, as a message's first encode in a
  run is. A certificate is an entry's whole evidence, so
  `check_certified` and `verify_chain` carry the whole cost of checking
  one;
- `message_bytes`: the wire size of each of those messages;
- `signatures_per_unit`: the `SigningKey.sign` calls made by one pass
  over a workload's specs (one benchmark unit), counted in this process,
  with the batches that pass committed and the signatures per committed
  batch: a unit that commits more batches signs more. `real_signatures`
  counts the calls that really signed, the rest being run-memo hits;
- `bytecodes_per_unit`: the Python bytecodes executed (`sys.settrace`
  opcode events), the Python calls made (its call events) and the
  messages delivered by one pass over a workload's seed-1 specs, counted
  in a fresh child process (`--count-bytecodes <workload>`). The count is
  made twice, each in its own process, and must come out equal: it is a
  deterministic measure of host work that the host's speed does not move;
- `long_run`: the saturated_b64 seed-1 spec run for each of `LONG_RUN_MS`,
  twice and four times the benchmark's duration, each after its warm-up
  run: the real Ed25519 verifies (memo misses of `crypto.verify_raw`) made
  during the run and in its end-of-run audit, the real message parses
  (`messages._parse` calls: bytes `decode_message` got that were not a
  frame), the run memo's entries per kind at the end of the run (read
  just before `crypto.clear_caches` empties it), host microseconds per
  delivery over the whole `harness.run` (audit included), and the sha256
  of the report as `report.json` holds it. A run memo that forgets what a
  long run already checked shows here as real work repeated, and one that
  grows with the run's length shows in its entry counts;
- `cold_start`: over `COLD_STARTS` fresh child processes, the median
  seconds of `import vguard.harness`, the median growth of the process's
  peak RSS across it (VmHWM, the `ru_maxrss` of a process that started
  from nothing larger), and the modules that a first run (the `COLD_RUN`
  spec) imports beyond that import, which must be the same in every
  child. What a process pays before its first run, and what a report
  loads that no run needs, show here;
- `src_lines`: the lines of each `src/vguard` module and their total, the
  code size that each change reports.

The file also names the git head the sources came from, whether the
working tree differed from it, and the host.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vguard import crypto, harness, messages  # noqa: E402
from vguard.booths import build_profile  # noqa: E402
from vguard.codec import digest  # noqa: E402
from vguard.crypto import (KeyService, PartialSignature, Role,  # noqa: E402
                           aggregate, make_identity, make_partial)
from vguard.ledger import (CommitRecord, DataBatch, DataEntry, Ledger,  # noqa: E402
                           LogEntry, TxEntry, commit_cert_digest,
                           order_cert_digest, prune_memberships, tx_hash_over,
                           verify_chain, window_transaction)
from vguard.messages import (CommitMsg, CommitReply, GossipAck,  # noqa: E402
                             GossipMsg, OrderMsg, OrderReply, Ping, Pong,
                             PreCommitSeen, PreCommitUnseen, PreOrder,
                             TraverseHop, traverse_digest)
from vguard.netsim import Scheduler  # noqa: E402

SEED = 1
PRIMITIVE_CALLS = 200
WINDOW_ENTRIES = 8
WINDOW_US = 100_000
SCHEDULER_PENDING = 256
LONG_WINDOW = 112
BUILD_CALLS = 1000
LONG_RUN_MS = (800.0, 1600.0)
COLD_STARTS = 7
# the clean_n4 golden spec: a short open-loop run of one booth of four
COLD_RUN = "harness.RunSpec(duration_ms=300.0, grace_ms=300.0, " \
    "rate_per_s=100.0, seed=21)"
# A child's `ru_maxrss` starts at its parent's peak on Linux, so the child
# reads its own peak, VmHWM, where the kernel shows it.
_COLD_CHILD = f"""
import json, resource, sys, time
def peak_kb():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rss = peak_kb()
start = time.perf_counter()
from vguard import harness
import_s = time.perf_counter() - start
grown = peak_kb() - rss
loaded = set(sys.modules)
harness.run({COLD_RUN})
print(json.dumps({{"import_s": import_s, "import_rss_kb": grown,
                  "first_run_imports": sorted(set(sys.modules) - loaded)}}))
"""


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
    """Median and quartiles, in us, of a real sign, a real verify, the
    certificate work, the encode and parse of every message type and one
    scheduler event; and the wire size of each message."""
    _, key = make_identity(1, Role.VEHICLE, bytes(range(32)))
    payloads = [digest("bench", i) for i in range(PRIMITIVE_CALLS)]
    sigs, signs = [], []
    for payload in payloads:
        crypto.clear_caches()
        start = time.perf_counter()
        sigs.append(key.sign(payload))
        signs.append(time.perf_counter() - start)
    signed = iter(zip(payloads, sigs))
    out = {"sign": _spread(signs),
           "verify_raw": _timed(
               lambda: crypto.verify_raw(key.verify_key, *next(signed)))}
    for size in (4, 7):
        booth, registry, keys = _booth(size)
        payload = digest("bench", size)
        partials = _partials(booth, keys, payload)
        out[f"aggregate_n{size}"] = _timed(
            lambda: bool(aggregate(partials, booth.member_ids, registry)))
        cert = _certify(booth, registry, keys, payload)
        out[f"check_certified_n{size}"] = _timed(
            lambda: booth.check_certified(cert, payload, registry) is None)
    booth, registry, keys = _booth(4)
    entries, record, tx = _one_window(booth, registry, keys)
    ledger = Ledger(1, WINDOW_US)
    ledger.append_commit(record, tx())
    out["verify_chain_window"] = _timed(
        lambda: verify_chain(ledger, registry).ok)
    sizes = {}
    for name, build in _messages(booth, keys, entries, record, tx).items():
        raw = build().encode()
        sizes[name] = len(raw)
        out[f"encode_{name}"] = _timed(lambda msg: bool(msg.encode()),
                                       lambda: (build(),))
        out[f"parse_{name}"] = _timed(
            lambda: messages._parse(raw) is not None)
    out["scheduler_event"] = _timed(_one_event, _pending_scheduler)
    first = entries[0]
    window = [LogEntry(oid, first.batch, booth.booth_hash, first.cert)
              for oid in range(1, LONG_WINDOW + 1)]
    pairs = [(e.ordering_id, digest("bench", e.ordering_id)) for e in window]
    out[f"tx_hash_{LONG_WINDOW}"] = _timed(
        lambda: len(tx_hash_over(0, WINDOW_US, pairs)) == 32)
    out[f"prune_{LONG_WINDOW}"] = _timed(
        lambda: len(prune_memberships(window, lambda _: booth)) == 1)
    for name, build in _records(keys, first).items():
        out[f"build_{name}"] = _timed(
            lambda: [build() for _ in range(BUILD_CALLS)],
            scale=1 / BUILD_CALLS)
    return out, sizes


def _records(keys, entry) -> dict:
    """A builder of each record type a run builds most often."""
    partial = make_partial(keys[2], digest("bench", "partial"))
    return {
        "Ping": lambda: Ping(0, 2, 9, 123_456),
        "PartialSignature": lambda: PartialSignature(
            partial.signer, partial.payload_digest, partial.sig_bytes),
        "OrderReply": lambda: OrderReply(1, 2, entry.ordering_id, partial),
        "LogEntry": lambda: LogEntry(entry.ordering_id, entry.batch,
                                     entry.booth_hash, entry.cert, 5),
        "TxEntry": lambda: TxEntry(entry.ordering_id, entry.batch,
                                   entry.cert),
    }


def _pending_scheduler() -> tuple:
    """A scheduler holding SCHEDULER_PENDING events due after time 1."""
    sched = Scheduler()
    for i in range(SCHEDULER_PENDING):
        sched.at(2.0 + i, _no_op)
    return (sched,)


def _one_event(sched: Scheduler) -> bool:
    sched.at(1.0, _no_op)
    sched.run_until(1.0)
    return sched.now == 1.0


def _no_op() -> None:
    pass


def _timed(check, setup=tuple, scale: float = 1.0) -> dict:
    """`_spread` of PRIMITIVE_CALLS calls of `check(*setup())`, each after
    the run memo is emptied, timing the check alone, times `scale`; every
    call must return True."""
    samples = []
    for _ in range(PRIMITIVE_CALLS):
        crypto.clear_caches()
        args = setup()
        start = time.perf_counter()
        ok = check(*args)
        samples.append((time.perf_counter() - start) * scale)
        assert ok
    crypto.clear_caches()
    return _spread(samples)


def _booth(size: int):
    """A booth of members 1..size (proposer 1, pivot 2), the registry that
    holds them, and each member's signing key."""
    registry, keys, members = KeyService(), {}, []
    for node in range(1, size + 1):
        role = {1: Role.PROPOSER, 2: Role.PIVOT}.get(node, Role.VEHICLE)
        ident, keys[node] = make_identity(node, role, bytes([node]) * 32)
        registry.register(ident)
        members.append(ident)
    booth = build_profile(members, proposer_id=1, pivot_id=2)
    return booth, registry, keys


def _partials(booth, keys, payload: bytes) -> list:
    """The partials over `payload` of the pivot and the next members, 2f
    in all."""
    return [make_partial(keys[m], payload)
            for m in booth.member_ids[1:1 + 2 * booth.fault_budget]]


def _certify(booth, registry, keys, payload: bytes):
    """The certificate of `_partials` over `payload`."""
    return aggregate(_partials(booth, keys, payload), booth.member_ids,
                     registry)


def _one_window(booth, registry, keys):
    """One window of WINDOW_ENTRIES certified entries, all ordered and
    committed in `booth`: the entries, the commit record, and a builder of
    a fresh copy of the window's transaction."""
    entries = []
    for oid in range(1, WINDOW_ENTRIES + 1):
        batch = DataBatch(DataEntry(8 * oid + i, bytes(64)) for i in range(8))
        cert = _certify(booth, registry, keys, order_cert_digest(
            oid, batch.batch_hash, booth.booth_hash))
        entries.append(LogEntry(oid, batch, booth.booth_hash, cert))

    def tx():
        return window_transaction(0, WINDOW_US, entries, lambda _: booth)

    tx_hash = tx().tx_hash
    cert = _certify(booth, registry, keys, commit_cert_digest(
        0, tx_hash, booth.booth_hash))
    return entries, CommitRecord(0, booth.booth_hash, cert, tx_hash), tx


def _messages(booth, keys, entries, record, tx) -> dict:
    """A builder of a fresh copy of each timed message: one of each type,
    the first entry's ordering messages and the window's commit messages."""
    first = entries[0]
    ordered = order_cert_digest(first.ordering_id, first.batch_hash,
                                booth.booth_hash)
    committed = commit_cert_digest(0, record.tx_hash, booth.booth_hash)
    partial = make_partial(keys[booth.proposer_id], committed)
    pre, reply = make_partial(keys[1], ordered), make_partial(keys[2], ordered)
    commit_reply = make_partial(keys[2], committed)

    def commit():
        return CommitMsg(
            instance_id=1, sender=1, window_start_us=0,
            booth_hash=record.booth_hash, cert=record.cert,
            tx_hash=record.tx_hash)

    commit_hash = commit().commit_hash()
    hop = TraverseHop(lifetime=2, node_id=1,
                      sig=keys[1].sign(traverse_digest(commit_hash, 2)))
    return {
        "PreOrder": lambda: PreOrder(
            instance_id=1, sender=1, ordering_id=first.ordering_id,
            batch=first.batch, batch_hash=first.batch_hash, booth=booth,
            booth_hash=booth.booth_hash,
            proposer_partial=pre),
        "OrderReply": lambda: OrderReply(
            instance_id=1, sender=2, ordering_id=first.ordering_id,
            partial=reply),
        "OrderMsg": lambda: OrderMsg(
            instance_id=1, sender=1, ordering_id=first.ordering_id,
            cert=first.cert),
        "PreCommitSeen": lambda: PreCommitSeen(
            instance_id=1, sender=1, window_start_us=0,
            window_len_us=WINDOW_US, tx_hash=record.tx_hash,
            first_id=first.ordering_id, last_id=entries[-1].ordering_id,
            booth=booth, booth_hash=booth.booth_hash,
            proposer_partial=partial),
        "PreCommitUnseen": lambda: PreCommitUnseen(
            instance_id=1, sender=1, window_start_us=0,
            window_len_us=WINDOW_US, tx_hash=record.tx_hash, tx=tx(),
            booth=booth, booth_hash=booth.booth_hash,
            proposer_partial=partial),
        "CommitReply": lambda: CommitReply(
            instance_id=1, sender=2, window_start_us=0,
            partial=commit_reply),
        "CommitMsg": commit,
        "GossipMsg": lambda: GossipMsg(
            instance_id=1, sender=1, commit=commit().certified(), tx=tx(),
            traverse=(hop,)),
        "GossipAck": lambda: GossipAck(
            instance_id=1, sender=3, commit_hash=commit_hash),
        "Ping": lambda: Ping(instance_id=0, sender=2, seq=9,
                             sent_at_us=123_456),
        "Pong": lambda: Pong(instance_id=0, sender=3, seq=9,
                             sent_at_us=123_456),
    }


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles([s * 1e6 for s in samples], n=4)
    return {"median": round(median, 2), "q1": round(q1, 2),
            "q3": round(q3, 2), "calls": len(samples)}


def signatures_per_unit(workloads) -> dict:
    """`SigningKey.sign` calls over one pass of each workload's specs, the
    calls among them that really signed (`SigningKey._signed`), and the
    batches that pass committed."""
    originals = {attr: getattr(crypto.SigningKey, attr)
                 for attr in ("sign", "_signed")}
    count = dict.fromkeys(originals, 0)

    def counting(attr):
        def counted(key, payload_digest):
            count[attr] += 1
            return originals[attr](key, payload_digest)
        return counted

    out = {}
    for attr in originals:
        setattr(crypto.SigningKey, attr, counting(attr))
    try:
        for name, build in sorted(workloads.items()):
            count.update(dict.fromkeys(count, 0))
            committed = 0
            for spec in build(SEED).specs:
                report = harness.run(spec).report
                committed += sum(i["committed_batches"]
                                 for i in report["instances"])
            out[name] = {"signatures": count["sign"],
                         "real_signatures": count["_signed"],
                         "committed_batches": committed,
                         "per_committed_batch":
                             round(count["sign"] / max(committed, 1), 3)}
    finally:
        for attr, original in originals.items():
            setattr(crypto.SigningKey, attr, original)
    return out


def count_bytecodes(workload: str) -> dict:
    """Bytecodes, Python calls and deliveries of one pass over the
    workload's specs in this process, after its warm-up run, as the
    benchmark times it. Only the pass is traced: not the building of the
    specs, nor the warm-up, which makes the one-time set-up (generated
    encoders, type hints) that a timed unit does not pay."""
    load = load_workloads()[workload](SEED)
    harness.run(load.warmup)
    counts = {"bytecodes": 0, "calls": 0}

    def per_opcode(frame, event, arg):
        if event == "opcode":
            counts["bytecodes"] += 1
        return per_opcode

    def per_call(frame, event, arg):
        counts["calls"] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return per_opcode

    delivered = 0
    for spec in load.specs:
        sys.settrace(per_call)
        try:
            result = harness.run(spec)
        finally:
            sys.settrace(None)
        delivered += sum(result.net.delivered.values())
    return {**counts, "deliveries": delivered}


def bytecodes_per_unit(names) -> dict:
    """`count_bytecodes` of each workload, made twice, each time in a new
    child process; a count that differs between the two is an error."""
    out = {}
    for name in names:
        first, second = (json.loads(subprocess.run(
            [sys.executable, __file__, "--count-bytecodes", name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout)
            for _ in range(2))
        if first != second:
            raise RuntimeError(f"{name}: bytecode counts differ between "
                               f"processes: {first} vs {second}")
        out[name] = first
    return out


def long_run(duration_ms: float) -> dict:
    """Real verifies, in the run and in its audit, real parses, the run
    memo's entries per kind at the end of the run, host us per delivery
    and the report digest of the saturated_b64 seed-1 spec run for
    `duration_ms`."""
    load = load_workloads()["saturated_b64"](SEED)
    spec = replace(load.specs[0], duration_ms=duration_ms)
    harness.run(load.warmup)
    counts = {"run_verifies": 0, "audit_verifies": 0, "parses": 0}
    phase = ["run_verifies"]
    memo_kinds = []
    originals = (crypto._really_verifies, messages._parse, harness._audit,
                 crypto.clear_caches)
    verifies, parse, audit, clear = originals

    def counted_verifies(*args):
        counts[phase[0]] += 1
        return verifies(*args)

    def counted_parse(raw):
        counts["parses"] += 1
        return parse(raw)

    def audit_phase(*args):
        phase[0] = "audit_verifies"
        return audit(*args)

    def count_then_clear():
        memo_kinds.append(dict(sorted(Counter(
            key[0] for key in crypto._memo).items())))
        clear()

    (crypto._really_verifies, messages._parse, harness._audit,
     crypto.clear_caches) = (counted_verifies, counted_parse, audit_phase,
                             count_then_clear)
    try:
        start = time.perf_counter()
        result = harness.run(spec)
        elapsed = time.perf_counter() - start
    finally:
        (crypto._really_verifies, messages._parse, harness._audit,
         crypto.clear_caches) = originals
    delivered = sum(result.net.delivered.values())
    report = json.dumps(result.report, indent=2, sort_keys=True) + "\n"
    at_end = memo_kinds[-1]                 # the clear that ends the run
    return {**counts, "duration_ms": duration_ms, "deliveries": delivered,
            "memo_at_end": {"kinds": at_end, "total": sum(at_end.values())},
            "us_per_delivery": round(elapsed / delivered * 1e6, 2),
            "report_sha256": hashlib.sha256(report.encode()).hexdigest()}


def cold_start() -> dict:
    """`_COLD_CHILD` in COLD_STARTS fresh processes: the medians of the
    import's seconds and peak-RSS growth, and the modules a first run
    imports, which differ between processes only by an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    children = [json.loads(subprocess.run(
        [sys.executable, "-c", _COLD_CHILD], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, check=True).stdout)
        for _ in range(COLD_STARTS)]
    imports = {tuple(child["first_run_imports"]) for child in children}
    if len(imports) != 1:
        raise RuntimeError(f"first runs import different modules: {imports}")
    return {"processes": COLD_STARTS, "run": COLD_RUN,
            "import_s": round(statistics.median(
                c["import_s"] for c in children), 4),
            "import_rss_mb": round(statistics.median(
                c["import_rss_kb"] for c in children) / 1024, 2),
            "first_run_imports": list(imports.pop())}


def src_lines() -> dict:
    """Lines of each module of `src/vguard`, and their total."""
    modules = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((ROOT / "src" / "vguard").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


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
    parser.add_argument("--out", type=Path)
    parser.add_argument("--count-bytecodes", metavar="WORKLOAD",
                        help="print `count_bytecodes` of one workload as JSON "
                             "and exit (the child process of "
                             "`bytecodes_per_unit`)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="--seconds of each untraced benchmark run")
    args = parser.parse_args(argv)
    if args.count_bytecodes:
        print(json.dumps(count_bytecodes(args.count_bytecodes)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: {"trace0": bench_run(name, args.seconds, 0)}
            for name in names}
    for name in names:
        runs[name]["trace1"] = bench_run(name, args.seconds, 1)
    primitives, sizes = primitive_us()
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
        "primitives_us": primitives,
        "message_bytes": sizes,
        "signatures_per_unit": signatures_per_unit(load_workloads()),
        "bytecodes_per_unit": bytecodes_per_unit(names),
        "long_run": [long_run(ms) for ms in LONG_RUN_MS],
        "cold_start": cold_start(),
        "src_lines": src_lines(),
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    ok = all(r["exit"] == 0 for per in runs.values() for r in per.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
