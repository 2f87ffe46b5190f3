"""Ledger-vs-per-event equivalence: the observability correctness gate.

``Simulation(monitors=...)`` replays ledger rows in drained batches and
must preserve per-event semantics exactly (ROADMAP item 3): the same
violations with the same attribution, the same monitor reports, the
same health gauge series.  The per-event reference is the recording
hub -- ``trace=True`` delivers every event to the monitors as it is
emitted.  These tests pin the equivalence on the canonical
loaded-system workload and on the certified chaos pack across the
certification seeds (7/19/42).
"""

from __future__ import annotations

import random

import pytest

from repro.facade import Simulation
from repro.monitor import MonitorHub, default_monitors
from repro.mutex import CriticalResource, L2Mutex
from repro.scenario import builtin_registry, run_scenario
from repro.workload import MutexWorkload

SEEDS = (7, 19, 42)


def _scrub(report):
    """Drop the only field allowed to differ between the two runs."""
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


def _loaded_run(trace: bool, seed: int = 3):
    """``trace=True`` is the per-event reference, ``False`` the ledger."""
    sim = Simulation(n_mss=4, n_mh=16, seed=seed, monitors=True,
                     trace=trace)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=0.05,
                             rng=random.Random(seed + 1))
    mobility_rng = random.Random(seed + 2)
    from repro.mobility import UniformMobility

    mobility = UniformMobility(sim.network, sim.mh_ids, 0.02,
                               rng=mobility_rng)
    sim.run(until=600.0)
    workload.stop()
    mobility.stop()
    sim.drain()
    sim.monitor_hub.finalize()
    return sim


class TestCanonicalEquivalence:
    def test_loaded_system_reports_match(self):
        event = _loaded_run(trace=True)
        batched = _loaded_run(trace=False)
        assert event.monitor_hub.report() == batched.monitor_hub.report()
        assert event.scheduler.events_processed == \
            batched.scheduler.events_processed

    def test_loaded_system_health_series_match(self):
        """Sample times and every exact counter are identical; only
        the instantaneous ground-truth gauges (scheduler depth, cell
        load) are read at drain time instead of emit time, a staleness
        bounded by the drain quantum (docs/observability.md)."""
        from repro.monitor.health import HealthMonitor

        event = _loaded_run(trace=True)
        batched = _loaded_run(trace=False)
        h_event = event.monitor_hub.monitor(HealthMonitor).samples
        h_batched = batched.monitor_hub.monitor(HealthMonitor).samples
        assert len(h_event) == len(h_batched)
        drain_time_gauges = {
            "pending_events", "events_processed", "mss_load",
        }
        for sample_e, sample_b in zip(h_event, h_batched):
            exact_e = {k: v for k, v in sample_e.items()
                       if k not in drain_time_gauges}
            exact_b = {k: v for k, v in sample_b.items()
                       if k not in drain_time_gauges}
            assert exact_e == exact_b

    def test_violation_attribution_matches(self):
        """Induced violations carry identical time/scope/detail on
        both hubs (the ledger replay must not re-time or re-order the
        offending events)."""

        def feed(hub):
            hub.scheduler = type("S", (), {"now": 0.0})()
            # Out-of-order FIFO parents on an MSS-MSS channel.
            for i, (parent, t) in enumerate([(5, 1.0), (3, 2.0)]):
                hub.scheduler.now = t
                hub.emit("recv", scope="test", src="mss-0",
                         dst="mss-1", parent=parent, kind="l2.request")
            hub.finalize()
            return [str(v) for m in hub.monitors for v in m.violations]

        per_event = feed(MonitorHub(None, default_monitors(), record=True))
        batched = feed(MonitorHub(None, default_monitors(), record=False))
        assert per_event == batched
        assert per_event  # the scenario above must actually violate

    def test_trace_ids_match(self):
        """Event ids allocated by the ledger appenders line up with
        the recording hub's (senders stamp them into
        message.trace_id)."""
        event = _loaded_run(trace=True)
        batched = _loaded_run(trace=False)
        assert event.monitor_hub._next_id == batched.monitor_hub._next_id


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_pack_equivalence(seed):
    """Every certified chaos scenario produces an identical report
    (monitors, health series, costs, messages) on the ledger and on
    the per-event reference, for each certification seed."""
    registry = builtin_registry()
    for name in sorted(registry.names()):
        spec = registry.get(name)
        event = run_scenario(spec, seed=seed, trace=True)
        batched = run_scenario(spec, seed=seed)
        assert _scrub(event.report) == _scrub(batched.report), (
            f"{name} seed={seed}: ledger diverges from per-event"
        )
        assert event.events == batched.events
