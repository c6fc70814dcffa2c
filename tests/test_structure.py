"""Structural guards over the `vguard` sources.

The quorum-certificate rule has one owner on each side: validators and the
auditor accept a certificate only through `BoothProfile.check_certified`,
and proposers build one only through `QuorumRound.certify`. A second caller
of the crypto primitives would be a second copy of the rule. Validators
and the auditor walk a transaction's entry certificates through one
function, and ordering and consensus drive their rounds through one
lifecycle, `RoundCoordinator`, whose steps no coordinator writes again.

Every run is single-threaded, so `MembershipUnit` and the network hold no
locks; no module may bring threads in.

Signing may go through libsodium by `ctypes`; the foreign library stays
behind `vguard.crypto`, the one module that owns signing.

A run memoises its deterministic work (signature checks, parsed keys,
certificate verdicts and digests, decoded messages) in one memo behind
`crypto.recall`: no other module keeps a memo to clear, and only
`harness.run` clears it.

Everything a run counts goes to one tally, held by its `Network`: no other
module makes a `Counter` of its own for the report to gather.

A receiver decodes bytes encoded in this process to the sender's own
message object, so every class a message carries is a frozen dataclass.
Each of them is a `codec.Wire`, whose layout is its field list, so no
module writes a second, hand-made encoder or decoder for it.

No linter runs on the sources, so two `ast` checks stand in for one: no
module imports a name it never uses, and every function and method is
referenced from `vguard` or from `perfbench`, the benchmark that drives it.
An import the benchmark's tracer must find in a module to rebind it (its
`REQUIRED_BINDINGS`) counts as a use there.
API kept for its tests alone is dead code to a reader of the sources.

The benchmark's tracer (`perfbench/tracer.py`) patches functions and
methods of the sources by name. A rename it does not follow breaks only the
traced benchmark run, so one short traced run is checked here: the tracer
covers every binding it needs, records spans in each layer it names, and
leaves the run's report as it was. The benchmark's worker
(`perfbench/worker.py`) reads a finished run's delivery tally and latency
samples by name, so each workload's warm-up run goes through it here too.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import vguard
from vguard import harness
from vguard.booths import BoothProfile
from vguard.codec import Wire
from vguard.crypto import AggregateSignature, Identity, PartialSignature
from vguard.ledger import MembershipLink, Transaction, TxEntry
from vguard.messages import CertifiedCommit, TraverseHop, _Message
from vguard.netsim import SimConfig

SOURCES = sorted(Path(vguard.__file__).parent.glob("*.py"))
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
PERFBENCH = sorted(PERFBENCH_DIR.glob("*.py"))


def callers(name: str) -> set[str]:
    """`module:Qualified.name` of every function in `vguard` that calls
    `name`, as a bare name or as an attribute."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,), module)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute)
                          else None)
                if called == name:
                    found.add(f"{module}:{'.'.join(scope) or '<module>'}")
            visit(child, scope, module)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    return found


def test_certificates_are_checked_in_one_place():
    assert callers("verify_aggregate") == {"booths:BoothProfile.check_certified"}


def test_certificates_are_built_in_one_place():
    assert callers("aggregate") == {"ordering:QuorumRound.certify"}


def test_entry_certificates_are_walked_in_one_place():
    assert callers("uncertified_entries") == {
        "consensus:ValidatorConsensus._verify_foreign_entries",
        "ledger:verify_chain"}


def test_storage_is_written_by_gossip_alone():
    """A node's ledger holds what it committed; storage holds only the
    commits it learned through gossip."""
    assert callers("register_to_temp") == {"gossip:GossipAgent._store"}


def definitions(name: str) -> set[str]:
    """`module:Qualified.name` of every function in `vguard` named `name`."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child.name == name):
                found.add(f"{module}:{'.'.join(scope + (name,))}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,), module)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    return found


@pytest.mark.parametrize("step", ["_open", "_take_reply", "_settle",
                                  "_timed_out", "_booth_lost", "_retry",
                                  "_unpark"])
def test_each_round_lifecycle_step_is_written_once(step):
    """Opening, the reply screen, release in key order, the timeout, a lost
    booth, the retry budget and resuming parked work: a second copy in a
    coordinator would drift from the first."""
    assert definitions(step) == {f"ordering:RoundCoordinator.{step}"}


def importers(*packages: str) -> set[str]:
    """`module:package` for every `vguard` module that imports one of
    `packages` or a submodule of it."""
    found: set[str] = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(f"{path.stem}:{name}" for name in names
                         if name.split(".")[0] in packages)
    return found


def test_no_module_imports_threads():
    assert importers("threading", "queue") == set()


def test_only_crypto_imports_ctypes():
    assert importers("ctypes") == {"crypto:ctypes"}


def test_one_module_owns_the_run_memo():
    owners = [path.stem for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef)
              and node.name == "clear_caches"]
    assert owners == ["crypto"]
    assert callers("clear_caches") == {"harness:run"}


def test_one_network_owns_the_run_tally():
    assert callers("Counter") == {"netsim:Network.__init__"}


CARRIED = [*_Message.__subclasses__(), BoothProfile, Identity,
           PartialSignature, AggregateSignature, Transaction, TxEntry,
           MembershipLink, CertifiedCommit, TraverseHop]


def test_message_contents_are_frozen_dataclasses():
    thawed = [cls.__name__ for cls in CARRIED
              if not (dataclasses.is_dataclass(cls)
                      and cls.__dataclass_params__.frozen)]
    assert thawed == []


# the types that keep their own bytes
OWN_WIRE_FORM = {"DataBatch", "BoothProfile", "Transaction"}


def test_each_wire_layout_is_declared_once():
    hand_made: list[str] = []
    own_form: set[str] = set()
    for path in SOURCES:
        if path.stem == "codec":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                if any(isinstance(item, ast.FunctionDef)
                       and item.name in ("to_field", "read_from")
                       for item in node.body):
                    own_form.add(node.name)
            elif isinstance(node, ast.FunctionDef) and (
                    node.name in ("body_fields", "read_body")
                    or (node.name.startswith("_") and node.name.endswith(
                        ("_to_field", "_read_from")))):
                hand_made.append(f"{path.stem}:{node.name}")
    assert hand_made == []
    assert own_form <= OWN_WIRE_FORM
    assert [cls.__name__ for cls in CARRIED if not issubclass(cls, Wire)] == []


def test_every_dataclass_declares_its_own_docstring():
    """`dataclass` makes a class without a docstring one from its
    constructor's signature, through `inspect.signature`, as each module
    is imported; a class that declares its own costs nothing."""
    undocumented = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    _called(dec) in ("dataclass", "record")
                    for dec in node.decorator_list) and \
                    ast.get_docstring(node) is None:
                undocumented.append(f"{path.stem}:{node.name}")
    assert undocumented == []


def _called(decorator: ast.expr) -> str:
    """The name a decorator is, or calls: `dataclass` for
    `@dataclass(slots=True)`."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", ""))


def test_no_module_imports_a_name_it_never_uses(monkeypatch):
    tracer = _load_perfbench("tracer", monkeypatch)
    required = {(module.rsplit(".", 1)[1], name) for name, modules
                in tracer.REQUIRED_BINDINGS.items() for module in modules}
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):                # re-exports count as uses
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.stem}:{name}" for name in bound
                   if name not in used and (path.stem, name) not in required]
    assert unused == []


# API that callers outside these files drive: the ledger import that reads
# back an export, and the storage operations that the storage lifecycle
# criterion exercises.
UNREFERENCED_API = {
    "ledger:Ledger.import_jsonl",
    "storage:StorageInstance.move_to_perm",
    "storage:StorageInstance.delete_perm",
}


def test_every_function_is_referenced_from_the_sources_or_perfbench():
    assert PERFBENCH
    referenced: set[str] = set()
    for path in SOURCES + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)       # the tracer binds by name
    unreferenced: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # dunders and enum hooks such as `_missing_` are called
                # by the language
                hook = child.name.startswith("_") and child.name.endswith("_")
                if child.name not in referenced and not hook:
                    unreferenced.add(f"{module}:{'.'.join(scope + (child.name,))}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,), module)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    assert unreferenced == UNREFERENCED_API


def _load_perfbench(name: str, monkeypatch):
    """A perfbench script as a module. It imports its siblings from
    `perfbench/`, as it does when run, through a `sys.path` that the test
    restores, and is registered while the test runs, as `dataclasses`
    needs."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH_DIR), *sys.path])
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["chaos_mix", "saturated_b64", "lossy_gossip"])
def test_benchmark_worker_reads_a_run(monkeypatch, workload):
    worker = _load_perfbench("worker", monkeypatch)
    spec = worker.WORKLOADS[workload](1, tiny=True).warmup
    outcome = worker.run_spec(spec, worker.RefClock())
    assert outcome.ok, outcome.error or outcome.problems
    assert outcome.delivered > 0
    assert outcome.commit_latency_us


def test_benchmark_tracer_covers_the_sources_and_changes_no_report(
        monkeypatch):
    tracer_mod = _load_perfbench("tracer", monkeypatch)
    spec = harness.RunSpec(booth_size=4, duration_ms=60.0, grace_ms=120.0,
                   rate_per_s=100.0, seed=5, strict_audit=False,
                   byzantine=((3, ("tamper_payload",)),),
                   sim=SimConfig(seed=0, drop_rate=0.05, dup_rate=0.05,
                                 delay_sd_ms=0.3, gst_ms=40.0))
    untraced = harness.run(spec).report
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.coverage_problems() == []
        traced = harness.run(spec).report      # through the wrapper
    finally:
        tracer.uninstall()
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced,
                                                            sort_keys=True)
    calls = tracer.summarize()[0]
    for name in (*tracer_mod.NETSIM_SPANS, "node.callback", "codec.pack",
                 "messages.encode.Ping", "messages.decode.PreOrder",
                 "crypto.sign", "crypto.verify", "harness.run"):
        assert calls[name] > 0, name
    metrics = tracer_mod.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["netsim.events"][0] >= calls["netsim.deliver"]
