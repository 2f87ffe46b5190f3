"""A running system forks: every builtin scenario at half its duration,
and the quickstart L2 and R2' systems by hand.

A scenario run is built the way :func:`~repro.scenario.run_scenario`
builds it, run to half its ``duration`` and deep-copied.  The copy and
the original are each finished with :func:`repro.workload.finish`, and
each must end with the unforked run's report (wall time aside) and
verdict: every timer, driver, monitor and site emitter went with the
copy, and nothing the copy does reaches the original.  The walkthrough
scenarios fork traced, and each half must also keep the unforked run's
number of trace events.  The hand-built systems fork the same way,
plain, monitored and traced, and the R2' ring at two points of the
token's circulation.
"""

from __future__ import annotations

import copy
import glob
import os
import random

import pytest

from repro import Simulation
from repro.mobility import UniformMobility
from repro.mutex import CriticalResource, L2Mutex, R2Mutex, R2Variant
from repro.scenario import builtin_registry, pack_dir, run_scenario
from repro.scenario.report import build_report
from repro.scenario.runner import _Run
from repro.workload import MutexWorkload, finish

REGISTRY = builtin_registry()
WALKTHROUGHS = REGISTRY.names("walkthrough")
PACK = [name for name in REGISTRY.names() if name not in WALKTHROUGHS]


def started(spec, seed, trace=False):
    """A wired run of ``spec`` at ``seed``, at sim-time 0."""
    run = _Run(spec, seed, trace=trace)
    run.wire_workload()
    run.wire_churn()
    run.schedule_events()
    return run


def kept(sim):
    """How many trace events ``sim`` kept (``None`` untraced)."""
    return None if sim is None or sim.tracer is None \
        else len(sim.tracer.events)


def ended(run):
    """Finish ``run`` as ``run_scenario`` does: its report (wall time
    aside), its failed expectations and its kept trace's length."""
    finish(run.wired, until=run.spec.duration, settle=run.spec.settle)
    run.sim.monitor_hub.finalize()
    failures = run.evaluate()
    report = build_report(run.spec, run.seed, run.sim,
                          run.workload_stats(), wall_time_s=0.0)
    return report, failures, kept(run.sim)


def test_the_pack_has_every_scenario():
    assert len(PACK) == 23
    assert len(glob.glob(os.path.join(pack_dir(), "*.json"))) == 23
    assert len(REGISTRY.names("chaos")) == 22  # + the smoke baseline
    assert len(WALKTHROUGHS) == 7


def assert_forks(spec, seed, trace=False):
    unforked = run_scenario(spec, seed=seed, trace=trace)
    expected = (dict(unforked.report, wall_time_s=0.0), unforked.failures,
                kept(unforked.sim))
    original = started(spec, seed, trace=trace)
    original.sim.run(until=0.5 * spec.duration)
    fork = copy.deepcopy(original)
    assert ended(fork) == expected
    assert ended(original) == expected


@pytest.mark.parametrize("name", PACK)
def test_a_half_run_scenario_forks(name):
    spec = REGISTRY.get(name)
    assert_forks(spec, spec.seed)


@pytest.mark.parametrize("name", WALKTHROUGHS)
def test_a_half_run_walkthrough_forks_traced(name):
    spec = REGISTRY.get(name)
    assert_forks(spec, spec.seed, trace=True)


def test_a_letter_missed_after_the_fork_is_the_fork_s_own():
    """At seed 8 a ``proxy_churn`` letter misses its destination after
    t=100.  The messenger's miss callback was its list's ``append``,
    which a deep copy shares: the original then recorded both runs'
    misses and the fork none."""
    spec = REGISTRY.get("proxy_churn")
    assert run_scenario(spec, seed=8).report["workload"]["missed"] == 1
    assert_forks(spec, 8)


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
