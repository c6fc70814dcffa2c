"""Span tracer for the benchmark's traced run.

The tracer patches, from outside the package, the public entry points of
each `vguard` module. Every call becomes a span (name, start, end, parent)
kept in memory and written out when the run ends. A span's self time is
its duration minus the time its direct children cover.

A function that other modules import with `from ... import` is rebound in
every `vguard` module that holds it, and `coverage_problems` names any
module that still holds an unwrapped original after patching.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

import vguard.booths
import vguard.codec
import vguard.consensus
import vguard.crypto
import vguard.gossip
import vguard.harness
import vguard.ledger
import vguard.messages
import vguard.mmu
import vguard.netsim
import vguard.node
import vguard.ordering
import vguard.storage

# Importers that must hold the wrapper of a `from`-imported function.
REQUIRED_BINDINGS = {
    "verify_raw": ("vguard.crypto", "vguard.gossip"),
    "decode_message": ("vguard.node",),
    "pack": ("vguard.booths", "vguard.crypto", "vguard.ledger",
             "vguard.messages"),
    "digest": ("vguard.booths", "vguard.crypto", "vguard.ledger",
               "vguard.messages"),
    "verify_chain": ("vguard.harness",),
}

HANDLERS = (
    (vguard.ordering.OrderingCoordinator, "handle_reply", "ordering.handle_reply"),
    (vguard.ordering.ValidatorOrdering, "handle_pre_order",
     "ordering.handle_pre_order"),
    (vguard.ordering.ValidatorOrdering, "handle_order", "ordering.handle_order"),
    (vguard.consensus.ConsensusCoordinator, "handle_reply",
     "consensus.handle_reply"),
    (vguard.consensus.ValidatorConsensus, "handle_seen", "consensus.handle_seen"),
    (vguard.consensus.ValidatorConsensus, "handle_unseen",
     "consensus.handle_unseen"),
    (vguard.consensus.ValidatorConsensus, "handle_commit",
     "consensus.handle_commit"),
)

NETSIM_SPANS = ("netsim.run", "netsim.send", "netsim.deliver", "netsim.invoke")


def _tag_name(types: dict[int, str], raw: bytes) -> str:
    return types.get(raw[1], "unknown") if len(raw) > 1 else "unknown"


def message_types() -> dict[int, str]:
    """Wire tag -> class name for every message type `vguard.messages` defines."""
    return {cls.TAG: cls.__name__ for cls in vars(vguard.messages).values()
            if isinstance(cls, type) and hasattr(cls, "read_body")}


def _vguard_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "vguard" or name.startswith("vguard."))]


class Tracer:
    """Spans and boundary counts for one traced pass over a workload."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.end_state: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._functions: dict[str, tuple[object, object]] = {}
        self._methods: list[tuple[type, str, object]] = []
        self._verified: set = set()
        self._encoded: set = set()
        self._decoded: set = set()
        self.types = message_types()

    # -- spans -------------------------------------------------------------

    def _spanned(self, name, fn, observe=None):
        """Wrap fn in a span. `name` is a string, or a callable that names
        the span from the call's positional arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (namer(args) if namer else name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _function(self, module, attr, name, observe=None) -> None:
        original = getattr(module, attr)
        wrapper = self._spanned(name, original, observe)
        for mod in _vguard_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        self._functions[attr] = (original, wrapper)

    def _method(self, cls, attr, name, observe=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._spanned(name, raw.__func__, observe))
        elif isinstance(raw, cached_property):
            wrapped = cached_property(self._spanned(name, raw.func, observe))
            wrapped.__set_name__(cls, attr)
        else:
            wrapped = self._spanned(name, raw, observe)
        self._set(cls, attr, wrapped)
        self._methods.append((cls, attr, wrapped))

    def install(self) -> None:
        m = vguard
        types = self.types
        self._function(m.codec, "pack", "codec.pack", self._on_pack)
        self._function(m.codec, "digest", "codec.digest")
        self._function(m.crypto, "verify_raw", "crypto.verify", self._on_verify)
        self._function(m.crypto, "make_partial", "crypto.sign")
        self._function(m.crypto, "aggregate", "crypto.aggregate")
        self._function(m.crypto, "verify_aggregate", "crypto.verify_aggregate")
        self._function(m.messages, "decode_message",
                       lambda a: f"messages.decode.{_tag_name(types, a[0])}",
                       self._on_decode)
        self._function(m.ledger, "verify_chain", "ledger.verify_chain",
                       self._on_verify_chain)
        self._function(m.harness, "run", "harness.run", self._on_run)
        self._function(m.harness, "_audit", "harness.audit")
        self._function(m.harness, "_report", "harness.report")

        encode_owner = next(c for c in m.messages.PreOrder.__mro__
                            if "encode" in vars(c))
        self._method(encode_owner, "encode",
                     lambda a: f"messages.encode.{type(a[0]).__name__}",
                     self._on_encode)
        self._method(m.booths.BoothProfile, "read_from", "booths.decode")
        self._method(m.booths.BoothProfile, "booth_hash", "booths.booth_hash")
        self._method(m.node.NodeRuntime, "handle",
                     lambda a: f"node.handle.{_tag_name(types, a[2])}")
        for cls, attr, name in HANDLERS:
            self._method(cls, attr, name)
        self._method(m.gossip.GossipAgent, "handle_gossip", "gossip.handle")
        self._method(m.storage.StorageInstance, "register_to_temp",
                     "storage.register")
        self._method(m.storage.StorageMaster, "cleanup", "storage.cleanup")
        self._method(m.mmu.MembershipUnit, "refill", "mmu.compose")
        self._method(m.netsim.Network, "run_until", "netsim.run")
        self._method(m.netsim.Network, "send", "netsim.send")
        self._method(m.netsim.Network, "_deliver", "netsim.deliver")
        self._set(m.netsim.Network, "_invoke",
                  self._spanned("netsim.invoke",
                                self._invoke_probe(m.netsim.Network._invoke)))
        self._set(m.netsim.Scheduler, "at",
                  self._counted("netsim.events", m.netsim.Scheduler.at))

    def _invoke_probe(self, original):
        """Count requeues behind a busy modeled CPU, and give each handled
        invocation a `node.callback` span so that protocol work done in
        timer bodies is not billed to the scheduler."""
        counts = self.counts
        callback = self._spanned

        def invoke(net, node_id, fn, preload_ms=0.0):
            if net._busy.get(node_id, 0.0) > net.sched.now:
                counts["netsim.requeues"] += 1
                return original(net, node_id, fn, preload_ms)
            return original(net, node_id, callback("node.callback", fn),
                            preload_ms)

        return invoke

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def coverage_problems(self) -> list[str]:
        """Places that still hold an unwrapped original after install()."""
        problems = []
        for attr, (original, wrapper) in sorted(self._functions.items()):
            for mod in _vguard_modules():
                for key, value in vars(mod).items():
                    if value is original:
                        problems.append(f"{mod.__name__}.{key} is unwrapped")
            for modname in REQUIRED_BINDINGS.get(attr, ()):
                if getattr(sys.modules[modname], attr, None) is not wrapper:
                    problems.append(f"{modname}.{attr} does not hold the wrapper")
        missing = set(REQUIRED_BINDINGS) - set(self._functions)
        problems += [f"{attr} was never wrapped" for attr in sorted(missing)]
        for cls, attr, wrapped in self._methods:
            if cls.__dict__.get(attr) is not wrapped:
                problems.append(f"{cls.__name__}.{attr} is unwrapped")
        encode = vguard.messages.PreOrder.encode
        for name in self.types.values():
            if getattr(vguard.messages, name).encode is not encode:
                problems.append(f"{name}.encode bypasses the traced encode")
        return problems

    # -- boundary observations ---------------------------------------------

    def _on_pack(self, args, result) -> None:
        self.counts["codec.pack.bytes"] += len(result)

    def _on_verify(self, args, result) -> None:
        self._verified.add(args)

    def _on_encode(self, args, result) -> None:
        if result in self._encoded:
            self.counts["messages.encode.repeats"] += 1
        else:
            self._encoded.add(result)

    def _on_decode(self, args, result) -> None:
        self._decoded.add(args[0])

    def _on_verify_chain(self, args, result) -> None:
        self.counts["ledger.verify_chain.windows"] += result.windows_checked

    def _on_run(self, args, result) -> None:
        """End of one harness run: close the per-run distinct sets and read
        state sizes and report counters from outside."""
        counts = self.counts
        counts["crypto.verify.distinct"] += len(self._verified)
        counts["messages.decode.distinct"] += len(self._decoded)
        self._verified.clear()
        self._encoded.clear()
        self._decoded.clear()
        report = result.report
        counts["ordering.abandoned"] += sum(i["abandoned_batches"]
                                            for i in report["instances"])
        for stats in report["gossip"].values():
            counts["gossip.stored"] += stats["stored"]
            counts["gossip.forwarded"] += stats["forwarded"]
        validators = [v for rt in result.runtimes.values()
                      for v in rt.validators.values()]
        sizes = {
            "ordering.pending_end": sum(len(v.ordering.pending) for v in validators),
            "consensus.pending_end": sum(len(v.consensus.pending)
                                         for v in validators),
            "netsim.counters_end": len(result.net.counters),
        }
        for key, size in sizes.items():
            self.end_state[key] = max(self.end_state[key], size)

    # -- results -----------------------------------------------------------

    def summarize(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), Counter(), Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[idx]
        return calls, incl, own

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent"]})
                     + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9),
                                     round(end - origin, 9), parent]) + "\n")


def layer_metrics(tracer: Tracer, scale: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    `.us` is mean inclusive microseconds per call, `.self_us` mean self
    microseconds per call, and `_s` seconds summed over the pass. Span
    times are multiplied by `scale`, the pass's reference seconds per
    measured second; `overhead_s` is in reference seconds already."""
    calls, incl, own = tracer.summarize()
    incl = Counter({name: t * scale for name, t in incl.items()})
    own = Counter({name: t * scale for name, t in own.items()})
    counts = tracer.counts

    def per_call(name, table=incl):
        return table[name] / calls[name] * 1e6 if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "crypto.verify.calls": (calls["crypto.verify"], "count"),
        "crypto.verify.us": (per_call("crypto.verify"), "us"),
        "crypto.verify.distinct_ratio": (
            ratio(counts["crypto.verify.distinct"], calls["crypto.verify"]), "ratio"),
        "crypto.sign.us": (per_call("crypto.sign"), "us"),
        "crypto.aggregate.us": (per_call("crypto.aggregate"), "us"),
        "crypto.verify_aggregate.us": (per_call("crypto.verify_aggregate"), "us"),
        "codec.pack.calls": (calls["codec.pack"], "count"),
        "codec.pack.bytes": (counts["codec.pack.bytes"], "bytes"),
        "codec.pack.us": (per_call("codec.pack"), "us"),
        "codec.digest.us": (per_call("codec.digest"), "us"),
    }
    encodes = sum(calls[f"messages.encode.{t}"] for t in tracer.types.values())
    decodes = sum(calls[f"messages.decode.{t}"] for t in tracer.types.values())
    for kind in ("encode", "decode"):
        for name in sorted(tracer.types.values()):
            out[f"messages.{kind}.us.{name}"] = (
                per_call(f"messages.{kind}.{name}"), "us")
    out["messages.encode.repeat_ratio"] = (
        ratio(counts["messages.encode.repeats"], encodes), "ratio")
    out["messages.decode.distinct_ratio"] = (
        ratio(counts["messages.decode.distinct"], decodes), "ratio")
    out["booths.decode.calls"] = (calls["booths.decode"], "count")
    out["booths.decode.us"] = (per_call("booths.decode"), "us")
    out["booths.booth_hash.calls"] = (calls["booths.booth_hash"], "count")
    out["ledger.verify_chain.us_per_window"] = (
        ratio(incl["ledger.verify_chain"] * 1e6,
              counts["ledger.verify_chain.windows"]), "us")
    out["ledger.verify_chain.share"] = (
        ratio(incl["ledger.verify_chain"], incl["harness.run"]), "ratio")
    handled = calls["node.callback"]
    out["netsim.events"] = (counts["netsim.events"], "count")
    out["netsim.requeue_ratio"] = (ratio(counts["netsim.requeues"], handled),
                                   "ratio")
    out["netsim.self_s"] = (sum(own[name] for name in NETSIM_SPANS), "s")
    for name in sorted(tracer.types.values()):
        out[f"node.handle.us.{name}"] = (per_call(f"node.handle.{name}"), "us")
    for _, _, name in HANDLERS:
        out[f"{name}.self_us"] = (per_call(name, own), "us")
    out["ordering.abandoned"] = (counts["ordering.abandoned"], "count")
    out["gossip.handle.us"] = (per_call("gossip.handle"), "us")
    out["gossip.stored"] = (counts["gossip.stored"], "count")
    out["gossip.forwarded"] = (counts["gossip.forwarded"], "count")
    out["storage.register.calls"] = (calls["storage.register"], "count")
    out["storage.cleanup.calls"] = (calls["storage.cleanup"], "count")
    out["mmu.compose.us"] = (per_call("mmu.compose"), "us")
    simulate = incl["netsim.run"]
    audit, report = incl["harness.audit"], incl["harness.report"]
    out["harness.build_s"] = (incl["harness.run"] - simulate - audit - report, "s")
    out["harness.simulate_s"] = (simulate, "s")
    out["harness.audit_s"] = (audit, "s")
    out["harness.report_s"] = (report, "s")
    for key in ("ordering.pending_end", "consensus.pending_end",
                "netsim.counters_end"):
        out[key] = (tracer.end_state[key], "count")
    out["tracer.overhead_s"] = (overhead_s, "s")
    return out
