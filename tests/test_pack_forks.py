"""Every builtin scenario forks at half its duration.

A scenario run is built the way :func:`~repro.scenario.run_scenario`
builds it, run to half its ``duration`` and deep-copied.  The copy and
the original are each finished with :func:`repro.workload.finish`, and
each must end with the unforked run's report (wall time aside) and
verdict: every timer, driver, monitor and site emitter went with the
copy, and nothing the copy does reaches the original.  The walkthrough
scenarios fork traced, and each half must also keep the unforked run's
number of trace events.
"""

from __future__ import annotations

import copy
import glob
import os

import pytest

from repro.scenario import builtin_registry, pack_dir, run_scenario
from repro.scenario.report import build_report
from repro.scenario.runner import _Run
from repro.workload import finish

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
