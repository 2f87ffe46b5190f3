"""Monitor hub mechanics, facade wiring, health telemetry and the
``repro monitor`` CLI.

The mutation suite (``test_monitor_mutations.py``) proves each monitor
catches its bug; this file proves the plumbing around them: interest
dispatch, keeping or dropping the trace, online-vs-replay equivalence, the
``Simulation(monitors=...)`` surface, the health exports, and the CLI
watchdog over the canonical walkthrough scenarios.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    HealthMonitor,
    InvariantViolationError,
    LivenessMonitor,
    Monitor,
    MonitorHub,
    Simulation,
    default_monitors,
    replay_events,
    safety_monitors,
)
from repro.cli import main
from repro.mutex import CriticalResource, L2Mutex
from repro.trace.scenarios import SCENARIOS, run_scenario
from repro.workload import MutexWorkload


class Recorder(Monitor):
    name = "recorder"
    interests = ("cs.enter",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_event(self, event):
        self.seen.append(event.etype)


class Wildcard(Recorder):
    name = "wildcard"
    interests = None


def l2_run(**sim_kwargs):
    sim = Simulation(n_mss=3, n_mh=3, seed=7, **sim_kwargs)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=1.0, scope="L2")
    for mh_id in sim.mh_ids:
        mutex.request(mh_id)
    sim.drain()
    return sim


# ---------------------------------------------------------------------
# dispatch mechanics
# ---------------------------------------------------------------------

def test_interest_dispatch_routes_only_matching_events():
    narrow, wide = Recorder(), Wildcard()
    sim = l2_run(monitors=[narrow, wide])
    assert narrow.seen == ["cs.enter"] * 3
    assert set(narrow.seen) < set(wide.seen)
    assert wide.seen.count("cs.enter") == 3


def test_record_false_drops_events_record_true_keeps_them():
    dropped = l2_run(monitors=[Recorder()])
    kept = l2_run(trace=True, monitors=[Recorder()])
    assert dropped.monitor_hub.events == []
    assert dropped.tracer is None
    assert len(kept.monitor_hub.events) > 0
    assert kept.tracer is kept.monitor_hub
    # Keeping the trace is a drain step; the monitors see the same.
    assert (kept.monitor_hub.monitors[0].seen
            == dropped.monitor_hub.monitors[0].seen)


def _probe_l2(trace: bool):
    """A monitored L2 soak: M=4, N=12, seed 42, requests at 0.05."""
    sim = Simulation(n_mss=4, n_mh=12, seed=42, monitors=True, trace=trace)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    MutexWorkload(sim.network, mutex, sim.mh_ids, request_rate=0.05,
                  rng=random.Random(43))
    sim.run(until=300.0)
    return sim


def test_a_kept_trace_certifies_like_an_untraced_run():
    """A traced monitored run drains and certifies exactly as the
    untraced one; a kept trace must not switch the hub to a second
    pipeline whose drain counters stay at zero."""
    traced, untraced = _probe_l2(trace=True), _probe_l2(trace=False)
    hub = traced.monitor_hub
    assert hub.certified_until == traced.now == 300.0
    assert hub.drains >= 1
    assert hub.rows_dispatched == untraced.monitor_hub.rows_dispatched
    assert hub.drains == untraced.monitor_hub.drains
    assert hub.rows_dispatched == len(traced.tracer.events)


def _send_at_integer_time(trace: bool):
    """One downlink sent after ``run(until=10)``: the clock, and so a
    compact send row, is the int ``10``."""
    sim = Simulation(n_mss=3, n_mh=4, seed=1, monitors=True, trace=trace)
    mh = sim.mh(0)
    received = []
    mh.register_handler("x.ping", received.append)
    sim.run(until=10)
    assert type(sim.now) is int
    sim.mss(0).send_to_local_mh(mh.host_id, "x.ping", None, "x")
    sim.drain()
    assert len(received) == 1
    return sim


def test_a_send_at_an_integer_time_drains_and_counts_once():
    sim = _send_at_integer_time(trace=False)
    hub = sim.monitor_hub
    assert hub.ok
    traced = _send_at_integer_time(trace=True)
    replay = replay_events(traced.tracer.events, default_monitors(),
                           network=traced.network)
    sends = hub.monitor(HealthMonitor).samples[-1]["sends"]
    assert sends == replay.monitor(HealthMonitor).samples[-1]["sends"]
    assert sends == len([e for e in traced.tracer.events
                         if e.etype.startswith("send.")])


def test_replay_sees_exactly_what_online_saw():
    online = Wildcard()
    sim = l2_run(trace=True, monitors=[online])
    offline = Wildcard()
    replay_events(sim.tracer.events, [offline])
    assert offline.seen == online.seen


def test_hub_finalize_is_idempotent():
    liveness = LivenessMonitor()
    hub = MonitorHub(None, [liveness])
    hub.dispatch_count = 0
    liveness.pending[("L2", "mh-0")] = 1.0
    hub.finalize(at=500.0)
    hub.finalize(at=900.0)
    assert len(liveness.violations) == 1


def test_monitor_lookup_by_class():
    monitors = default_monitors()
    hub = MonitorHub(None, monitors)
    assert isinstance(hub.monitor(HealthMonitor), HealthMonitor)
    assert hub.monitor(Recorder) is None


def test_default_monitors_bundle_safety_liveness_and_health():
    monitors = default_monitors(request_deadline=9.0, token_deadline=4.0,
                                health_interval=2.0)
    names = [type(m).__name__ for m in monitors]
    assert len(monitors) == len(safety_monitors()) + 2
    assert "LivenessMonitor" in names and "HealthMonitor" in names
    liveness = next(m for m in monitors if isinstance(m, LivenessMonitor))
    assert liveness.request_deadline == 9.0
    assert liveness.token_deadline == 4.0


# ---------------------------------------------------------------------
# facade surface
# ---------------------------------------------------------------------

def test_facade_without_monitors_installs_no_hub():
    sim = l2_run()
    assert sim.monitor_hub is None
    assert "not installed" in sim.monitor_report()
    sim.assert_invariants()  # no-op, must not raise


def test_facade_monitors_true_installs_the_default_set():
    sim = l2_run(monitors=True)
    assert sim.monitor_hub is not None
    assert len(sim.monitor_hub.monitors) == len(default_monitors())
    assert sim.monitor_hub.network is sim.network
    sim.assert_invariants()
    assert "invariant monitors" in sim.monitor_report()
    assert "ok" in sim.monitor_report()


def test_assert_invariants_raises_on_violation():
    monitor = LivenessMonitor(request_deadline=1e9)
    sim = l2_run(monitors=[monitor])
    monitor.pending[("L2", "mh-9")] = 0.0  # synthetic unserved request
    with pytest.raises(InvariantViolationError) as excinfo:
        sim.assert_invariants()
    assert "liveness.request_unserved" in str(excinfo.value)


# ---------------------------------------------------------------------
# health telemetry
# ---------------------------------------------------------------------

def test_health_samples_and_exports():
    sim = l2_run(monitors=True)
    sim.monitor_hub.finalize()
    health = sim.monitor_hub.monitor(HealthMonitor)
    assert health.samples, "no gauge samples were taken"
    last = health.samples[-1]
    assert last["sends"] > 0 and last["recvs"] > 0
    assert last["cs_entries"] == 3
    assert last["violations"] == 0
    assert sum(last["mss_load"].values()) == 3
    lines = health.to_jsonl().strip().splitlines()
    assert len(lines) == len(health.samples)
    parsed = [json.loads(line) for line in lines]
    assert [p["t"] for p in parsed] == sorted(p["t"] for p in parsed)
    prom = health.to_prometheus()
    assert "# TYPE repro_sends_total gauge" in prom
    assert "repro_cs_entries_total 3" in prom
    assert 'repro_mss_load{mss="mss-0"}' in prom
    assert "repro_invariant_violations 0" in prom


def test_health_sampling_interval_is_edge_triggered():
    health = HealthMonitor(interval=100.0)
    sim = l2_run(monitors=[health])
    # a short run crosses the t=0 boundary once and never reaches 100
    assert len(health.samples) == 1
    sim.monitor_hub.finalize()
    assert len(health.samples) == 2  # finalize appends the closing one


# ---------------------------------------------------------------------
# canonical scenarios and the CLI watchdog
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_canonical_scenarios_hold_every_invariant(name):
    run = run_scenario(name)
    hub = replay_events(run.events, default_monitors(),
                        network=run.sim.network)
    assert hub.ok, hub.report()


def test_cli_monitor_lists_scenarios():
    lines = []
    assert main(["monitor", "--list"], emit=lines.append) == 0
    out = "\n".join(lines)
    for name in SCENARIOS:
        assert name in out


def test_cli_monitor_certifies_one_scenario(tmp_path):
    health = tmp_path / "health.jsonl"
    prom = tmp_path / "health.prom"
    lines = []
    code = main(
        ["monitor", "--scenario", "l2",
         "--health-out", str(health), "--prom-out", str(prom)],
        emit=lines.append,
    )
    out = "\n".join(lines)
    assert code == 0
    assert "all invariants held" in out
    samples = [json.loads(line) for line in
               health.read_text().strip().splitlines()]
    assert samples and samples[-1]["cs_entries"] > 0
    assert "repro_sim_time" in prom.read_text()


def test_cli_monitor_runs_all_scenarios():
    lines = []
    assert main(["monitor"], emit=lines.append) == 0
    out = "\n".join(lines)
    assert "all invariants held" in out
    for name in SCENARIOS:
        assert name in out


def test_cli_monitor_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["monitor", "--scenario", "nope"], emit=lambda _line: None)
