"""Ledger observability: exact monitoring off the hot path.

The paper's two-tier cost argument (ICDCS 1994) is certified by the
invariant monitors in :mod:`repro.monitor`; this package takes their
per-event dispatch off the simulation's hot path without losing a
single event (ROADMAP item 3's "<10% observability" target) and runs
the result as a long-lived telemetry service (ROADMAP item 5):

* :mod:`repro.obs.ledger` -- the per-etype sites of the rows hot emit
  sites append to the tracer's one segment, drained in batch through
  :meth:`repro.monitor.hub.MonitorHub.consume_batch`.
* :mod:`repro.obs.service` -- the stdlib-only HTTP telemetry service
  behind ``repro serve``: ``/metrics`` (Prometheus text), ``/health``
  and ``/invariants`` (rolling certification from the drain pass).

``Simulation(monitors=...)`` runs on the ledger; ``trace=True`` adds
only a retention step to the same drains, and per-event replay of the
kept trace is the reference the ledger is tested against.  The one
wall-clock sample ``/metrics`` carries is the hub's own
``monitor_wall_s``.  See
``docs/observability.md`` for the contract and the measured overhead.
"""

from __future__ import annotations

from repro.obs.ledger import LedgerSite
from repro.obs.service import TelemetryServer

__all__ = [
    "LedgerSite",
    "TelemetryServer",
]
