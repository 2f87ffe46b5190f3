"""The trace event model and the tracer itself.

A :class:`TraceEvent` is one observable step of a protocol execution:
a message transmission, a message receipt, a lifecycle change (join,
leave, crash), a token hop, a critical-section entry, a fault decision,
or a recovery action.  Events carry

* a monotonically increasing ``id`` (total order of observation),
* a causal ``parent_id`` -- the event that *caused* this one: a receive
  points at its send, and anything emitted while a handler runs points
  at the receive that triggered the handler,
* the ``scope`` the traffic is accounted under (same labels as
  :class:`~repro.metrics.MetricsCollector`), and
* the paper's cost ``category`` (``fixed`` / ``wireless`` / ``search`` /
  ``search_probe``) when the event is a priced transmission, ``None``
  for free events (local deliveries, state changes, fault bookkeeping).

Tracing is structurally free when disabled: every instrumentation point
goes through the network's ``trace`` attribute, which defaults to the
shared :data:`NULL_TRACER` -- its methods do nothing, allocate nothing,
and are guarded by ``enabled`` checks on the hot paths, so the exact
cost accounting of every experiment is byte-identical with or without
the layer compiled in.  Enabling tracing never touches the scheduler,
the metrics, or any RNG, so a traced run *also* produces identical
costs and message counts -- the trace is a pure observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim import Scheduler


@dataclass(slots=True)
class TraceEvent:
    """One observed step of a protocol execution.

    Attributes:
        id: monotonically increasing event id (observation order).
        parent_id: id of the causally preceding event, or ``None`` for
            root events (spontaneous actions such as a workload firing).
        time: simulated time of the observation.
        etype: dotted event type (``"send.fixed"``, ``"recv"``,
            ``"cs.enter"``, ``"fault.mss_crash"``, ...).
        scope: metrics scope of the causing protocol (``"L2"``, ...).
        category: cost category for priced transmissions
            (``"fixed"`` / ``"wireless"`` / ``"search"`` /
            ``"search_probe"``) or ``None`` for free events.
        src: id of the acting/sending host, if any.
        dst: id of the receiving host, if any.
        kind: message kind for send/recv events, else ``None``.
        detail: free-form event payload (token values, reasons, ...).
    """

    id: int
    parent_id: Optional[int]
    time: float
    etype: str
    scope: str = "default"
    category: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    kind: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arrow = (
            f" {self.src}->{self.dst}" if self.src or self.dst else ""
        )
        return (
            f"TraceEvent(#{self.id} t={self.time:g} {self.etype}"
            f"{arrow} scope={self.scope})"
        )


class _Context:
    """Context manager pushing one event id on the tracer's causal stack."""

    __slots__ = ("_tracer", "_event_id")

    def __init__(self, tracer: "Tracer", event_id: Optional[int]) -> None:
        self._tracer = tracer
        self._event_id = event_id

    def __enter__(self) -> None:
        self._tracer._stack.append(self._event_id)

    def __exit__(self, *exc: object) -> None:
        self._tracer._stack.pop()


class _NullContext:
    """Shared do-nothing context manager used by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


def _null_append(*args: Any, **kwargs: Any) -> None:
    """The site emitter :class:`NullTracer` hands out."""
    return None


class Tracer:
    """Collects :class:`TraceEvent` records from an instrumented run.

    The tracer is a pure observer: it reads the scheduler clock but
    never schedules events, never draws randomness, and never records
    metrics, so enabling it cannot perturb a simulation.

    Causality is tracked with an explicit context stack: the network
    pushes the receive event's id around each handler dispatch, so any
    event emitted from inside the handler (sends, state changes) is
    parented to the receive that triggered it.  Send events additionally
    stamp their id onto the message envelope, which the matching receive
    uses as its parent -- chaining causality across the wire.
    """

    enabled = True

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.events: List[TraceEvent] = []
        self._next_id = 0
        self._stack: List[Optional[int]] = []

    def emit(
        self,
        etype: str,
        *,
        scope: str = "default",
        category: Optional[str] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        kind: Optional[str] = None,
        parent: Optional[int] = None,
        **detail: Any,
    ) -> int:
        """Record one event and return its id.

        ``parent`` defaults to the innermost active causal context (the
        receive being handled), or ``None`` at the top level.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        event_id = self._next_id
        self._next_id += 1
        self.events.append(
            TraceEvent(
                id=event_id,
                parent_id=parent,
                time=self.scheduler.now,
                etype=etype,
                scope=scope,
                category=category,
                src=src,
                dst=dst,
                kind=kind,
                detail=detail,
            )
        )
        return event_id

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        """The emitter for one hot instrumentation point.

        Returns ``append(scope, src, dst, kind=None, parent=None,
        detail=None) -> event_id``, which is :meth:`emit` of ``etype``
        and ``category`` with ``detail`` as its keyword payload.  Every
        hot site makes this one call; a ledger hub overrides it with a
        compiled row appender.
        """
        emit = self.emit

        def append(scope, src, dst, kind=None, parent=None, detail=None):
            return emit(etype, scope=scope, category=category, src=src,
                        dst=dst, kind=kind, parent=parent, **(detail or {}))

        return append

    def context(self, event_id: Optional[int]) -> _Context:
        """Causal context: events emitted inside are children of
        ``event_id``."""
        return _Context(self, event_id)

    def current(self) -> Optional[int]:
        """Id of the innermost active causal context, if any."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Drop all recorded events (ids keep increasing)."""
        self.events.clear()

    def by_type(self, etype: str) -> List[TraceEvent]:
        """All events of type ``etype`` (exact match)."""
        return [e for e in self.events if e.etype == etype]


class NullTracer:
    """The default no-op tracer.

    Shares the :class:`Tracer` interface; every method is a stub.  Hot
    paths additionally guard on :attr:`enabled` so a disabled run pays
    at most one attribute load per instrumentation point.
    """

    enabled = False
    events: List[TraceEvent] = []

    def emit(self, etype: str, **kwargs: Any) -> None:
        return None

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        return _null_append

    def context(self, event_id: Optional[int]) -> _NullContext:
        return _NULL_CONTEXT

    def current(self) -> None:
        return None

    def clear(self) -> None:
        return None


#: the shared no-op tracer installed on every network by default.
NULL_TRACER = NullTracer()
