"""Monitors must be pure observers: the simulation is byte-identical
with them on, off, or recording.

Two golden workloads -- a faulty R2'' run (loss + duplication + a
mid-run crash + a handoff) and a fault-free L2 + location-view run
with broadcast search -- are pinned to the exact event counts, final
clocks, access counts and metric digests they produced *before* the
monitor layer existed.  Every combination of ``trace=``/``monitors=``
must reproduce those numbers exactly: if a monitor ever schedules an
event, consumes randomness, or perturbs a message, these tests break.

The digest hashes the full metrics surface (per-category counts,
per-host energy, fault counters, recovery times), so "identical" here
means the paper-facing numbers, not just the event count.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Simulation
from repro.faults import FaultPlan, LinkFault, MssCrash
from repro.groups.location_view import LocationViewGroup
from repro.mutex import CriticalResource, L2Mutex, R2Mutex, R2Variant
from repro.trace import to_jsonl

#: golden numbers recorded at the PR 4 tree (before repro.monitor).
CHAOS_GOLDEN = {
    "events_processed": 299,
    "final_now": 135.0,
    "access_count": 6,
    "energy_total": 22,
    "fault_total": 86,
    "digest": "d5c52347083b3295936abca0d9e3f517"
              "eb3df09694bb845944b74c998384d40e",
}
GROUP_GOLDEN = {
    "events_processed": 36,
    "final_now": 13.5,
    "access_count": 4,
    "energy_total": 23,
    "digest": "6654fd78f002b10369a844efe1818967"
              "68fd504979cabce81d0c54d99d24e9c1",
}

#: every observation mode the facade supports -- monitors on the
#: ledger (trace=False) or per event (trace=True), recording or not.
MODES = [
    pytest.param(dict(trace=False, monitors=None), id="bare"),
    pytest.param(dict(trace=True, monitors=None), id="trace"),
    pytest.param(dict(trace=False, monitors=True), id="monitors"),
    pytest.param(dict(trace=True, monitors=True), id="trace+monitors"),
]


def metrics_digest(sim) -> str:
    snap = sim.metrics.snapshot()
    counts = sorted(
        ((cat.value, scope), n) for (cat, scope), n in snap.counts.items()
    )
    payload = json.dumps(
        {
            "counts": counts,
            "energy_tx": sorted(snap.energy_tx.items()),
            "energy_rx": sorted(snap.energy_rx.items()),
            "faults": sorted(snap.faults.items()),
            "recovery_times": list(snap.recovery_times),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def chaos_workload(**sim_kwargs):
    plan = FaultPlan(
        link_faults=(
            LinkFault(drop=0.15, duplicate=0.05, start=0.0, end=60.0),
        ),
        crashes=(MssCrash("mss-1", at=12.0, recover_at=45.0),),
        reliable=True,
        retransmit_timeout=4.0,
        rejoin_delay=3.0,
        seed=13,
    )
    sim = Simulation(n_mss=4, n_mh=6, seed=13, fault_plan=plan,
                     **sim_kwargs)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(
        sim.network,
        resource,
        cs_duration=1.0,
        variant=R2Variant.TOKEN_LIST,
        scope="R2''",
        max_traversals=25,
        token_timeout=30.0,
    )
    for i in range(6):
        mutex.request(sim.mh_id(i))
    mutex.start()
    sim.mh(0).move_to(sim.mss_id(2))
    events = sim.drain(max_events=2_000_000)
    return sim, resource, events


def group_workload(**sim_kwargs):
    sim = Simulation(n_mss=4, n_mh=8, seed=5, search="broadcast",
                     **sim_kwargs)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=1.0, scope="L2")
    members = [sim.mh_id(i) for i in range(4)]
    group = LocationViewGroup(sim.network, members, scope="group-lv")
    for i in range(4):
        mutex.request(sim.mh_id(i))
    group.send(sim.mh_id(0), payload="hello")
    sim.run(until=6.0)
    sim.mh(1).move_to(sim.mss_id(3))
    sim.mh(5).move_to(sim.mss_id(0))
    group.send(sim.mh_id(2), payload="again")
    events = sim.drain(max_events=2_000_000)
    return sim, resource, events


def check_golden(golden, sim, resource, events):
    snap = sim.metrics.snapshot()
    assert events == golden["events_processed"]
    assert sim.now == golden["final_now"]
    assert resource.access_count == golden["access_count"]
    assert snap.energy() == golden["energy_total"]
    if "fault_total" in golden:
        assert snap.fault_total() == golden["fault_total"]
    assert metrics_digest(sim) == golden["digest"]


@pytest.mark.parametrize("mode", MODES)
def test_chaos_workload_matches_golden_in_every_mode(mode):
    sim, resource, events = chaos_workload(**mode)
    check_golden(CHAOS_GOLDEN, sim, resource, events)


@pytest.mark.parametrize("mode", MODES)
def test_group_workload_matches_golden_in_every_mode(mode):
    sim, resource, events = group_workload(**mode)
    check_golden(GROUP_GOLDEN, sim, resource, events)


@pytest.mark.parametrize("workload", [chaos_workload, group_workload],
                         ids=["chaos", "group"])
def test_monitored_trace_is_byte_identical_to_plain_trace(workload):
    """trace=True with and without monitors yields the same event
    stream, byte for byte -- the hub records exactly what a plain
    Tracer would."""
    plain, _, _ = workload(trace=True)
    monitored, _, _ = workload(trace=True, monitors=True)
    assert to_jsonl(monitored.tracer.events) == to_jsonl(plain.tracer.events)


def test_unrecorded_hub_keeps_no_events():
    """monitors without trace must not grow the event list (the whole
    point of record=False on long runs)."""
    sim, _, _ = chaos_workload(monitors=True)
    assert sim.tracer is None
    assert sim.monitor_hub.events == []
    assert sim.monitor_hub.ok, sim.monitor_report()


def test_both_golden_workloads_hold_their_invariants():
    for workload in (chaos_workload, group_workload):
        sim, _, _ = workload(monitors=True)
        sim.assert_invariants()
