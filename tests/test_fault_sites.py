"""Every traced fault is one call: ``Network.fault``.

A fault that is both counted (``metrics.record_fault``) and traced
(``trace.emit``) goes through :meth:`repro.net.Network.fault`, which
does both under one name.  A function that makes the two calls itself
writes the fault down twice, and the two records can drift apart.

* The AST scan fails on any function under ``src/repro`` that calls
  both ``record_fault`` and ``emit``, outside :data:`ALLOWED`.
* Every literal fault name handed to ``record_fault``/``fault`` (or
  carried as a ``FaultDecision`` reason) is listed in docs/metrics.md.
* In traced chaos runs, each name recorded through ``Network.fault``
  has ``fault_total(name)`` equal to the number of kept trace events
  that its calls returned.
"""

from __future__ import annotations

import ast
import os
import random
from collections import Counter

import pytest

from repro import FaultPlan, MhCrash, MssCrash, Simulation
from repro.faults import LinkFault
from repro.mutex import CriticalResource, R2Mutex
from repro.net.network import Network
from repro.recovery import CounterClient
from repro.scenario import builtin_registry, run_scenario
from repro.workload import MutexWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "src", "repro")
METRICS_DOC = os.path.join(ROOT, "docs", "metrics.md")

#: functions allowed to count a fault and emit a trace event
#: themselves, with the reason: ``path:Class.function`` under
#: ``src/repro``.
ALLOWED = {
    "net/network.py:Network.fault": "the one helper every site calls",
    "faults/injector.py:FaultInjector._rejoin": (
        "fault.mh_rejoin must parent the reconnect, while mh.rejoined "
        "is counted after it so the faults the reconnect records keep "
        "their place in the CLI's first-occurrence order"
    ),
    "hosts/mh.py:MobileHost.reconnect": (
        "counts mh.rerouted_reconnect, a count-only fault; its emit is "
        "the mh.reconnect mobility step, not a fault event"
    ),
    "mutex/r2.py:R2Mutex._finish_access": (
        "counts r2.orphan_return, a count-only fault, on one branch and "
        "traces token.append, a protocol step, on another"
    ),
}

#: the calls that write a fault down.
COUNT = "record_fault"
TRACE = "emit"
NAMED = ("record_fault", "fault")


def _called(node: ast.AST) -> set:
    """Attribute names called in ``node``'s own body (nested function
    definitions are scanned on their own)."""
    names = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        if isinstance(child, ast.Call) and isinstance(child.func,
                                                      ast.Attribute):
            names.add(child.func.attr)
        stack.extend(ast.iter_child_nodes(child))
    return names


def _functions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every function, classes included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node, f"{prefix}{node.name}.")


def _parse(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _modules(root: str):
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield os.path.relpath(path, root).replace(os.sep, "/"), path


def double_recorders(root: str) -> list:
    """``path:qualname`` of every function under ``root`` that calls
    both ``record_fault`` and ``emit``."""
    found = []
    for rel, path in _modules(root):
        for qualname, node in _functions(_parse(path)):
            called = _called(node)
            if COUNT in called and TRACE in called:
                found.append(f"{rel}:{qualname}")
    return found


def fault_names(root: str) -> tuple:
    """The literal fault names under ``root``, and the literal parts of
    the f-string ones (``recovery.{reason}`` gives ``recovery.``)."""
    names, parts = set(), set()
    for _, path in _modules(root):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else func.id if isinstance(func, ast.Name) else None)
            args = []
            if callee in NAMED and node.args:
                args.append(node.args[0])
            if callee == "FaultDecision":
                args += [k.value for k in node.keywords if k.arg == "reason"]
            for arg in args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    names.add(arg.value)
                elif isinstance(arg, ast.JoinedStr):
                    parts.update(
                        v.value for v in arg.values
                        if isinstance(v, ast.Constant)
                    )
    return names, parts


# -- the scan -------------------------------------------------------------


def test_no_function_counts_and_traces_a_fault_itself():
    assert os.path.isfile(os.path.join(REPRO, "net", "network.py"))
    found = double_recorders(REPRO)
    assert [hit for hit in found if hit not in ALLOWED] == []
    # Every allowance is still needed: a stale entry would hide a
    # function that later starts writing a fault down twice.
    assert sorted(found) == sorted(ALLOWED)


def test_the_scan_finds_a_double_recorder(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(
        "class Station:\n"
        "    def crash(self, net):\n"
        "        net.metrics.record_fault('x.crash')\n"
        "        if net._trace_on:\n"
        "            net._trace.emit('fault.x_crash', src='x')\n"
        "    def count_only(self, net):\n"
        "        net.metrics.record_fault('x.count')\n"
        "    def trace_only(self, net):\n"
        "        net._trace.emit('x.event')\n"
        "    def split(self, net):\n"
        "        def inner():\n"
        "            net._trace.emit('x.inner')\n"
        "        net.metrics.record_fault('x.split')\n"
        "        return inner\n"
        "def helper(net):\n"
        "    net.fault('x.helper', 'fault.x_helper', src='x')\n"
    )
    assert double_recorders(str(tmp_path)) == ["sub/mod.py:Station.crash"]
    names, parts = fault_names(str(tmp_path))
    assert names == {"x.crash", "x.count", "x.split", "x.helper"}
    assert parts == set()


# -- the names are documented ---------------------------------------------


def test_every_fault_name_is_in_the_metrics_reference():
    with open(METRICS_DOC, encoding="utf-8") as handle:
        doc = handle.read()
    names, parts = fault_names(REPRO)
    # The scan sees the sites this file is about.
    assert {"rel.retransmit", "mss.crash", "fixed.dropped",
            "recovery.meta_forwarded", "r2.token_reissued"} <= names
    assert [n for n in sorted(names) if f"`{n}`" not in doc] == []
    assert [p for p in sorted(parts) if p not in doc] == []


# -- one count, one kept event --------------------------------------------


@pytest.fixture
def fault_calls(monkeypatch):
    """Every ``Network.fault`` call of the test: ``(name, etype, id)``."""
    calls = []
    original = Network.fault

    def recording(self, name, etype=None, **kwargs):
        event_id = original(self, name, etype, **kwargs)
        calls.append((name, etype or name, event_id))
        return event_id

    monkeypatch.setattr(Network, "fault", recording)
    return calls


def assert_one_event_per_count(sim, calls):
    assert calls, "the run recorded no fault through Network.fault"
    kept = {event.id: event.etype for event in sim.tracer.events}
    per_name = Counter()
    for name, etype, event_id in calls:
        assert kept.get(event_id) == etype, (name, event_id)
        per_name[name] += 1
    for name, events in sorted(per_name.items()):
        assert sim.metrics.fault_total(name) == events, name


@pytest.mark.parametrize(
    "scenario", ["kitchen_sink", "dup_delay_jitter", "mh_crash_wave"]
)
def test_chaos_run_keeps_one_event_per_counted_fault(scenario, fault_calls):
    spec = builtin_registry().get(scenario)
    result = run_scenario(spec, seed=7, trace=True)
    assert_one_event_per_count(result.sim, fault_calls)


def test_reliable_loss_with_recovery_keeps_one_event_per_count(
        fault_calls):
    plan = FaultPlan(
        link_faults=(LinkFault(drop=0.1, duplicate=0.05),),
        crashes=(MssCrash("mss-1", at=40.0, recover_at=90.0),),
        mh_crashes=(MhCrash("mh-2", at=60.0, recover_at=110.0),
                    MhCrash("mh-5", at=70.0, recover_at=130.0)),
        seed=7,
    )
    sim = Simulation(n_mss=4, n_mh=8, seed=7, trace=True,
                     fault_plan=plan, recovery="distance:2")
    resource = CriticalResource(sim.scheduler)
    counter = CounterClient(sim.recovery)
    mutex = R2Mutex(sim.network, resource, on_complete=counter.note_work)
    mutex.start()
    MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                  rng=random.Random(7))
    sim.run(until=200.0)
    names = {name for name, _, _ in fault_calls}
    assert {"rel.retransmit", "rel.dup_suppressed", "fixed.dropped",
            "msg.to_crashed_mss", "mss.crash", "mh.recover",
            "recovery.meta_forwarded", "recovery.restored",
            "r2.token_regenerated"} <= names
    assert_one_event_per_count(sim, fault_calls)
