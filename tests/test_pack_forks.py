"""Every pack scenario forks at half its duration.

A scenario run is built the way :func:`~repro.scenario.run_scenario`
builds it, run to half its ``duration`` and deep-copied.  The copy and
the original are each finished with :func:`repro.workload.finish`, and
each must end with the unforked run's report (wall time aside) and
verdict: every timer, driver, monitor and site emitter went with the
copy, and nothing the copy does reaches the original.
"""

from __future__ import annotations

import copy

import pytest

from repro.scenario import builtin_registry, run_scenario
from repro.scenario.report import build_report
from repro.scenario.runner import _Run
from repro.workload import finish

REGISTRY = builtin_registry()


def started(spec, seed):
    """A wired run of ``spec`` at ``seed``, at sim-time 0."""
    run = _Run(spec, seed)
    run.wire_workload()
    run.wire_churn()
    run.schedule_events()
    return run


def ended(run):
    """Finish ``run`` as ``run_scenario`` does: its report (wall time
    aside) and its failed expectations."""
    finish(run.wired, until=run.spec.duration, settle=run.spec.settle)
    run.sim.monitor_hub.finalize()
    failures = run.evaluate()
    report = build_report(run.spec, run.seed, run.sim,
                          run.workload_stats(), wall_time_s=0.0)
    return report, failures


def test_the_pack_has_every_scenario():
    assert len(REGISTRY.names()) == 23


def assert_forks(spec, seed):
    unforked = run_scenario(spec, seed=seed)
    expected = (dict(unforked.report, wall_time_s=0.0), unforked.failures)
    original = started(spec, seed)
    original.sim.run(until=0.5 * spec.duration)
    fork = copy.deepcopy(original)
    assert ended(fork) == expected
    assert ended(original) == expected


@pytest.mark.parametrize("name", sorted(REGISTRY.names()))
def test_a_half_run_scenario_forks(name):
    spec = REGISTRY.get(name)
    assert_forks(spec, spec.seed)


def test_a_letter_missed_after_the_fork_is_the_fork_s_own():
    """At seed 8 a ``proxy_churn`` letter misses its destination after
    t=100.  The messenger's miss callback was its list's ``append``,
    which a deep copy shares: the original then recorded both runs'
    misses and the fork none."""
    spec = REGISTRY.get("proxy_churn")
    assert run_scenario(spec, seed=8).report["workload"]["missed"] == 1
    assert_forks(spec, 8)
