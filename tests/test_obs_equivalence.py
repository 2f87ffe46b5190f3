"""Kept-trace and per-event equivalence: the observability
correctness gate.

``Simulation(monitors=...)`` replays ledger rows in drained batches,
and ``trace=True`` only adds a retention step to the same drains.  Two
things must hold:

(a) keeping the trace changes nothing the monitors report -- a traced
    run's report, violations and health series equal the untraced
    run's, apart from wall time;
(b) batched replay preserves per-event semantics -- a traced run's
    online verdicts and health series equal ``replay_events``
    (per-event dispatch) over its own kept trace, bound to the live
    network and finalized at ``sim.now``, apart from the three gauges
    a sample reads from the live system.

These tests pin both on the canonical loaded-system workload and on
the certified chaos pack across the certification seeds (7/19/42);
``tools/check_batched_equivalence.py`` runs the same oracle in CI
over seeds 1-64.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.facade import Simulation
from repro.monitor import MonitorHub, default_monitors, replay_events
from repro.mutex import CriticalResource, L2Mutex
from repro.scenario import builtin_registry
from repro.workload import MutexWorkload

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

from check_batched_equivalence import (  # noqa: E402
    check,
    replay_mismatches,
)

SEEDS = (7, 19, 42)


def _loaded_run(trace: bool, seed: int = 3):
    """The loaded-system workload, with or without a kept trace."""
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
        """(a): a kept trace drains at the same instants, so the health
        series is identical sample for sample -- the gauges read from
        the live system at drain time included."""
        from repro.monitor.health import HealthMonitor

        event = _loaded_run(trace=True)
        batched = _loaded_run(trace=False)
        h_event = event.monitor_hub.monitor(HealthMonitor).samples
        h_batched = batched.monitor_hub.monitor(HealthMonitor).samples
        assert len(h_event) > 1
        assert h_event == h_batched

    def test_loaded_system_matches_per_event_replay(self):
        """(b): the online verdicts and health series equal per-event
        replay over the run's own kept trace."""
        sim = _loaded_run(trace=True)
        assert replay_mismatches(sim, default_monitors()) == []

    def test_violation_attribution_matches(self):
        """Induced violations carry identical time/scope/detail online,
        with or without a kept trace, and under per-event replay of the
        kept trace (the ledger replay must not re-time or re-order the
        offending events)."""

        def feed(hub):
            hub.scheduler = type("S", (), {"now": 0.0})()
            # Out-of-order FIFO parents on an MSS-MSS channel.
            for parent, t in [(5, 1.0), (3, 2.0)]:
                hub.scheduler.now = t
                hub.emit("recv", scope="test", src="mss-0",
                         dst="mss-1", parent=parent, kind="l2.request")
            hub.finalize()
            return hub

        def verdicts(hub):
            return [str(v) for m in hub.monitors for v in m.violations]

        kept = feed(MonitorHub(None, default_monitors()).keep_trace())
        batched = verdicts(feed(MonitorHub(None, default_monitors())))
        per_event = verdicts(replay_events(kept.events, default_monitors()))
        assert verdicts(kept) == batched == per_event
        assert per_event  # the scenario above must actually violate

    def test_trace_ids_match(self):
        """Event ids allocated by the ledger appenders are the same
        with and without a kept trace (senders stamp them into
        message.trace_id)."""
        event = _loaded_run(trace=True)
        batched = _loaded_run(trace=False)
        assert event.monitor_hub._next_id == batched.monitor_hub._next_id


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_pack_equivalence(seed):
    """Every certified chaos scenario produces an identical report
    (monitors, health series, costs, messages) with and without a
    kept trace, and its online verdicts and health series equal
    per-event replay over its kept trace, for each certification
    seed."""
    registry = builtin_registry()
    for name in sorted(registry.names()):
        assert check(registry.get(name), seed) == [], f"{name} seed={seed}"
