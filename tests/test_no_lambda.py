"""Callbacks in ``repro`` are named, never lambdas.

Handlers, listeners, retries, timers and miss callbacks are wired as
bound methods or ``functools.partial`` objects, and sort keys are
``operator`` getters or small named functions: a partial's function
and arguments can be inspected and deep-copied with a forked
simulation, a lambda's closure cannot.  The scan parses every module
of ``repro`` -- each package in :data:`LAMBDA_FREE`, and the top-level
modules -- and fails on the first ``lambda`` it finds; the last test
shows what that buys.
"""

from __future__ import annotations

import ast
import copy
import os
import random

import pytest

from repro import Simulation
from repro.mobility import UniformMobility
from repro.mutex import CriticalResource, L2Mutex, R2Mutex, R2Variant
from repro.workload import MutexWorkload

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

REPRO = os.path.join(SRC, "repro")

#: every package of ``repro``; none contains a ``lambda``.
LAMBDA_FREE = tuple(sorted(
    f"repro.{name}" for name in os.listdir(REPRO)
    if os.path.isfile(os.path.join(REPRO, name, "__init__.py"))
))


def lambdas_in(path: str, root: str) -> list:
    """``path:line`` (relative to ``root``) of every lambda in one
    module."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    return [
        f"{os.path.relpath(path, root)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Lambda)
    ]


def lambdas_under(root: str) -> list:
    """``path:line`` of every lambda in the modules under ``root``."""
    found = []
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                found.extend(lambdas_in(os.path.join(directory, name), root))
    return found


@pytest.mark.parametrize("package", LAMBDA_FREE)
def test_package_has_no_lambda(package):
    root = os.path.join(SRC, *package.split("."))
    assert os.path.isdir(root)
    assert lambdas_under(root) == []


def test_top_level_modules_have_no_lambda():
    modules = sorted(name for name in os.listdir(REPRO)
                     if name.endswith(".py"))
    assert "facade.py" in modules
    assert [hit for name in modules
            for hit in lambdas_in(os.path.join(REPRO, name), REPRO)] == []


def test_the_scan_finds_a_nested_lambda(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(
        "def wire(host, node):\n"
        "    host.register_handler('k', lambda m: node.on(m.payload))\n"
    )
    assert lambdas_under(str(tmp_path)) == [os.path.join("sub", "mod.py:2")]


def _l2_system(**options):
    """The quickstart L2 system: M=4, N=12, seed 42, with mobility;
    ``options`` go to :class:`Simulation` (``monitors``, ``trace``)."""
    sim = Simulation(n_mss=4, n_mh=12, seed=42, **options)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    MutexWorkload(sim.network, mutex, sim.mh_ids, request_rate=0.05,
                  rng=random.Random(43))
    UniformMobility(sim.network, sim.mh_ids, 0.02, rng=random.Random(44))
    return sim, resource


def _r2_system(**options):
    """The same system on the R2' token ring."""
    sim = Simulation(n_mss=4, n_mh=12, seed=42, **options)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, cs_duration=0.3,
                    variant=R2Variant.COUNTER)
    mutex.start()
    MutexWorkload(sim.network, mutex, sim.mh_ids, request_rate=0.05,
                  rng=random.Random(43))
    UniformMobility(sim.network, sim.mh_ids, 0.02, rng=random.Random(44))
    return sim, resource


def _outcome(sim, resource):
    """What a run ends with: accesses, events, the cost report, the
    hub's drained rows and finalized verdicts, the kept trace length."""
    hub = sim.monitor_hub
    if hub is not None:
        hub.finalize()
    return (resource.access_count, sim.scheduler.events_processed,
            sim.metrics.report(sim.cost_model),
            hub and (hub.rows_dispatched, hub.report()),
            sim.tracer and len(sim.tracer.events))


def _assert_forks(build, fork_at, until, **options):
    unforked = build(**options)
    unforked[0].run(until=until)
    original = build(**options)
    original[0].run(until=fork_at)
    fork = copy.deepcopy(original)
    fork[0].run(until=until)
    original[0].run(until=until)
    expected = _outcome(*unforked)
    assert _outcome(*fork) == expected
    assert _outcome(*original) == expected


def test_a_deep_copy_of_a_running_system_is_a_fork():
    """What named callbacks buy: ``copy.deepcopy`` of a mid-run system
    copies every handler and timer with it, so the copy and the
    original each run on exactly as an unforked run does.  The R2 ring
    forks too, at two points of the token's circulation: a held token's
    one-shot ``forward`` is copied with the node and token it moves."""
    _assert_forks(_l2_system, 150.0, 400.0)
    for fork_at in (100.0, 103.5):
        _assert_forks(_r2_system, fork_at, 300.0)


@pytest.mark.parametrize("options", [
    {"monitors": True}, {"trace": True}, {"monitors": True, "trace": True},
], ids=["monitored", "traced", "monitored-traced"])
def test_a_monitored_or_traced_system_forks(options):
    """The site emitters a ledger hands out are bound methods of their
    sites, so a copy's hot sites emit into the copy's own ledger: the
    fork's hub drains and certifies what an unforked run's does, and
    the two kept traces are the unforked one."""
    _assert_forks(_l2_system, 150.0, 400.0, **options)


@pytest.mark.parametrize("fork_at", [100.0, 103.5])
def test_a_monitored_token_ring_forks(fork_at):
    _assert_forks(_r2_system, fork_at, 300.0, monitors=True)
