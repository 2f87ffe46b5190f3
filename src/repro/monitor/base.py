"""Base types for the online invariant-monitoring layer.

A :class:`Monitor` is a pure observer of the trace-event stream: it is
fed every :class:`~repro.trace.events.TraceEvent` the simulation emits
(or a recorded list of them, offline) and accumulates
:class:`Violation` records.  Monitors never schedule events, never send
messages, and never mutate simulation state, so enabling them cannot
change message counts, costs, event order, or randomness — the same
pure-observer contract the trace layer already keeps.

Monitors read time from ``event.time`` (never from the scheduler), so
the same monitor instance works both online (driven by a
:class:`~repro.monitor.hub.MonitorHub` installed as ``network.trace``)
and offline (replayed over a recorded trace with
:func:`~repro.monitor.hub.replay_events`).
Monitors certify the paper's safety claims online (ROADMAP observability arc).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.trace.events import TraceEvent

__all__ = ["Monitor", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One observed breach of a protocol invariant.

    ``invariant`` is a stable dotted identifier (``"mutex.exclusivity"``,
    ``"token.uniqueness"``, ...) that tests and the CLI match on;
    ``message`` is the human-readable account; ``detail`` carries the
    raw evidence (host ids, token values, event ids).
    """

    monitor: str
    invariant: str
    time: float
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return (f"[t={self.time:g}] {self.invariant}: {self.message}")


class Monitor:
    """Base class for invariant monitors and watchdogs.

    Subclasses set :attr:`name` (a short stable identifier) and
    :attr:`interests` — a tuple of event-type strings the monitor wants
    (``None`` subscribes to every event).  The hub uses ``interests``
    to build a per-event-type dispatch table so that a monitor which
    only cares about ``cs.enter``/``cs.exit`` costs nothing on the
    ``send.fixed`` hot path.
    """

    #: stable identifier used in reports and violation records
    name: str = "monitor"
    #: event types this monitor wants; ``None`` means every event
    interests: Optional[Tuple[str, ...]] = None
    #: ``etype -> kind-suffix tuple``: the hub delivers only events of
    #: that etype whose ``kind`` ends with one of the suffixes.  This
    #: replicates a monitor's own early return so the hub can skip the
    #: dispatch call -- and often the event construction -- entirely.
    kind_gates: Dict[str, Tuple[str, ...]] = {}

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.hub = None  # set by MonitorHub.attach
        self.network = None  # set by MonitorHub.bind, if bound

    # -- wiring -------------------------------------------------------
    def attach(self, hub) -> None:
        """Called once when the monitor is registered with a hub."""
        self.hub = hub

    def bind(self, network) -> None:
        """Give the monitor ground-truth access to the network.

        Optional: monitors must degrade gracefully (skip ground-truth
        checks) when replaying a recorded trace with no live network.
        """
        self.network = network

    # -- observation --------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        """Observe one trace event.  Pure: must not mutate the sim."""

    def finalize(self, now: float) -> None:
        """Run end-of-run checks (quiescence invariants, stalls)."""

    # -- reporting ----------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, invariant: str, time: float, message: str,
                  **detail: Any) -> Violation:
        record = Violation(monitor=self.name, invariant=invariant,
                           time=time, message=message, detail=dict(detail))
        self.violations.append(record)
        return record
