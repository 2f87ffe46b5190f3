"""Online invariant monitors, liveness watchdogs, and health telemetry.

The monitor layer turns the paper's run-level correctness claims into
executable, continuously evaluated invariants.  It subscribes to the
trace-event stream (the same instrumentation points, the same
zero-cost-when-off guard) and certifies safety while the simulation
runs, watches for liveness stalls against sim-time deadlines, and
exports periodic health gauges.

Usage::

    from repro import Simulation

    sim = Simulation(n_mss=4, n_mh=8, seed=7, monitors=True)
    ...
    sim.drain()
    sim.assert_invariants()          # raises on any violation
    print(sim.monitor_hub.report())  # or inspect per monitor

or offline, over a recorded trace::

    from repro.monitor import default_monitors, replay_events

    hub = replay_events(sim.tracer.events, default_monitors())
    assert hub.ok, hub.report()

See ``docs/observability.md`` for the invariant catalogue and the
paper sections each one certifies.
"""

from __future__ import annotations

from typing import List

from repro.monitor.base import Monitor, Violation
from repro.monitor.health import HealthMonitor
from repro.monitor.hub import MonitorHub, replay_events
from repro.monitor.liveness import LivenessMonitor
from repro.monitor.recovery import (
    CrashRecoveryMonitor,
    TokenConservationMonitor,
)
from repro.monitor.safety import (
    FifoOrderMonitor,
    HandoffMonitor,
    LocationViewMonitor,
    MutualExclusionMonitor,
    ReliableDeliveryMonitor,
    RingFairnessMonitor,
    TokenListMonitor,
    TokenUniquenessMonitor,
)

__all__ = [
    "Monitor",
    "Violation",
    "MonitorHub",
    "replay_events",
    "default_monitors",
    "safety_monitors",
    "MutualExclusionMonitor",
    "TokenUniquenessMonitor",
    "RingFairnessMonitor",
    "TokenListMonitor",
    "FifoOrderMonitor",
    "ReliableDeliveryMonitor",
    "HandoffMonitor",
    "LocationViewMonitor",
    "CrashRecoveryMonitor",
    "TokenConservationMonitor",
    "LivenessMonitor",
    "HealthMonitor",
]


def safety_monitors() -> List[Monitor]:
    """Fresh instances of every built-in safety monitor."""
    return [
        MutualExclusionMonitor(),
        TokenUniquenessMonitor(),
        RingFairnessMonitor(),
        TokenListMonitor(),
        FifoOrderMonitor(),
        ReliableDeliveryMonitor(),
        HandoffMonitor(),
        LocationViewMonitor(),
        CrashRecoveryMonitor(),
        TokenConservationMonitor(),
    ]


def default_monitors(
    request_deadline: float = 200.0,
    token_deadline: float = 120.0,
    health_interval: float = 25.0,
) -> List[Monitor]:
    """The full default set: safety + liveness + health."""
    return safety_monitors() + [
        LivenessMonitor(request_deadline=request_deadline,
                        token_deadline=token_deadline),
        HealthMonitor(interval=health_interval),
    ]
