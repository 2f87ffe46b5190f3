"""Every traced fault is one call: ``Network.fault``.

A fault that is both counted (``metrics.record_fault``) and traced
(``trace.emit``) goes through :meth:`repro.net.Network.fault`, which
does both under one name.  A function that makes the two calls itself
writes the fault down twice, and the two records can drift apart.

``tests/test_source_rules.py`` fails on any function under
``src/repro`` that calls both ``record_fault`` and ``emit`` outside its
allow-list (``double_fault_record``), and on a literal fault name that
docs/metrics.md does not list (``undocumented_fault``).  Here, in
traced chaos runs, each name recorded through ``Network.fault`` has
``fault_total(name)`` equal to the number of kept trace events that its
calls returned; a duplicated fixed transmission is one of them, and
``repro mutex`` charts it.
"""

from __future__ import annotations

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


def test_a_duplicated_transmission_is_counted_and_charted():
    result = run_scenario(builtin_registry().get("dup_delay_jitter"),
                          seed=7, trace=True)
    kept = [event for event in result.sim.tracer.events
            if event.etype == "fault.duplicate"]
    assert kept
    assert result.sim.metrics.fault_total("fixed.duplicated") == len(kept)

    from repro.cli import main

    lines = []
    assert main(["mutex", "--algorithm", "R2", "--fault-plan",
                 '{"link_faults": [{"drop": 0.1, "duplicate": 0.05}], '
                 '"reliable": true, "seed": 7}'],
                emit=lines.append) == 0
    chart = lines[lines.index("fault events:") + 1:]
    bars = {line.split()[0]: int(line.split()[-1]) for line in chart}
    assert bars.get("fixed.duplicated", 0) > 0
