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
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.sim import Scheduler

#: sim-time between ledger drains on the :meth:`Tracer.emit` path
#: (drains also run on segment fill and before any observation).
DRAIN_INTERVAL = 50.0


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


class Site:
    """One event type's emit point; each row carries its site last."""

    __slots__ = ("etype",)

    def __init__(self, etype: str) -> None:
        self.etype = etype


class Tracer:
    """The event ledger every instrumentation point writes to.

    The tracer is a pure observer: it reads the scheduler clock but
    never schedules events, never draws randomness, and never records
    metrics, so enabling it cannot perturb a simulation.

    An emit allocates the event id, resolves the causal parent and
    appends one row to the one shared segment -- no :class:`TraceEvent`
    is built there.  A row is the 10-tuple::

        (id, parent_id, time, scope, src, dst, kind, detail, category, site)

    A drain (on segment fill, every :data:`DRAIN_INTERVAL` sim-time on
    the :meth:`emit` path, before any observation) hands the rows in
    emission order to :meth:`consume_batch` -- a monitor hub's monitors
    -- and then, if the ledger keeps a trace, to the retention step
    that builds :attr:`events`.  A plain tracer keeps its trace; a hub
    keeps one after :meth:`keep_trace`.

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
        self._next_id = 0
        self._stack: List[Optional[int]] = []
        self._sites: Dict[str, Site] = {}
        #: the shared append segment: every site's rows land here, so
        #: they are already in global emission order (the same order
        #: that allocates the monotone event ids) and a drain consumes
        #: them without collecting or sorting.  Consumed in place and
        #: cleared, never swapped -- appender closures bind the list
        #: object directly.
        self._ledger: List[tuple] = []
        self._segment_cap = 8192
        self._drain_due = DRAIN_INTERVAL
        self._draining = False
        #: the kept trace, or ``None`` when this ledger keeps none.
        self._kept: Optional[List[TraceEvent]] = []
        #: wall seconds spent in :meth:`consume_batch`, for /metrics.
        self.monitor_wall_s = 0.0
        #: drains performed / rows drained, for /invariants.
        self.drains = 0
        self.rows_dispatched = 0
        #: sim-time through which every emitted row has been consumed
        #: (the clock at the end of the last drain).
        self.certified_until = 0.0

    def keep_trace(self) -> "Tracer":
        """Have each drain also keep its rows as :class:`TraceEvent`
        records; call before the ledger is installed on a network (site
        emitters are compiled then).  Returns the ledger."""
        if self._kept is None:
            self._kept = []
        return self

    def _compile_site(self, etype: str) -> Site:
        """Resolve, once, the site rows of ``etype`` carry."""
        site = self._sites[etype] = Site(etype)
        return site

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
        self._next_id = event_id + 1
        site = self._sites.get(etype)
        if site is None:
            site = self._compile_site(etype)
        rows = self._ledger
        now = self.scheduler.now
        rows.append((
            event_id, parent, now, scope, src, dst, kind,
            detail if detail else None, category, site,
        ))
        if len(rows) >= self._segment_cap or now >= self._drain_due:
            self.drain_batches()
        return event_id

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        """The emitter for one hot instrumentation point.

        Returns ``append(scope, src, dst, kind=None, parent=None,
        detail=None) -> event_id``, which appends the row :meth:`emit`
        of ``etype`` and ``category`` would, with ``detail`` as its
        payload, and drains on segment fill.  (The sim-time drain
        quantum is checked only on the :meth:`emit` path and before any
        observation; drain cadence is semantically invisible, so the
        hottest sites skip the clock comparison.)  Every hot site makes
        this one call when the ledger is installed.
        """
        site = self._sites.get(etype)
        if site is None:
            site = self._compile_site(etype)

        def append(
            scope, src, dst, kind=None, parent=None, detail=None,
            _self=self, _site=site, _rows=self._ledger,
            _stack=self._stack, _scheduler=self.scheduler,
            _category=category, _cap=self._segment_cap,
        ):
            if parent is None and _stack:
                parent = _stack[-1]
            event_id = _self._next_id
            _self._next_id = event_id + 1
            _rows.append((
                event_id, parent, _scheduler.now, scope, src, dst,
                kind, detail, _category, _site,
            ))
            if len(_rows) >= _cap:
                _self.drain_batches()
            return event_id

        return append

    def drain_batches(self) -> int:
        """Consume every pending row, then clear the segment in place.

        :meth:`consume_batch` sees the rows first; the retention step
        (when a trace is kept) then turns them into
        :class:`TraceEvent` records.  Returns the number of rows
        drained.  Reentrant calls (a monitor running inside the
        consume) are no-ops.
        """
        if self._draining:
            return 0
        rows = self._ledger
        if self.scheduler is not None:
            self._drain_due = self.scheduler.now + DRAIN_INTERVAL
        count = len(rows)
        if count == 0:
            return 0
        started = perf_counter()
        self._draining = True
        try:
            self.consume_batch(rows)
        finally:
            self._draining = False
        self.monitor_wall_s += perf_counter() - started
        if self._kept is not None:
            self._retain(rows)
        del rows[:]
        self.drains += 1
        self.rows_dispatched += count
        if self.scheduler is not None:
            self.certified_until = self.scheduler.now
        return count

    def consume_batch(self, rows: Sequence[tuple]) -> None:
        """The batch consume: a plain tracer has no subscribers."""
        return None

    def _retain(self, rows: Sequence[tuple]) -> None:
        """The retention step: one :class:`TraceEvent` per row."""
        keep = self._kept.append
        for (event_id, parent, time, scope, src, dst, kind, detail,
             category, site) in rows:
            keep(TraceEvent(
                event_id, parent, time, site.etype, scope, category, src,
                dst, kind, {} if detail is None else detail,
            ))

    @property
    def events(self) -> List[TraceEvent]:
        """The kept trace in emission order (drains first); empty when
        the ledger keeps none."""
        self.drain_batches()
        return [] if self._kept is None else self._kept

    def context(self, event_id: Optional[int]) -> _Context:
        """Causal context: events emitted inside are children of
        ``event_id``."""
        return _Context(self, event_id)

    def clear(self) -> None:
        """Drop all kept events, pending rows included (ids keep
        increasing)."""
        self.drain_batches()
        if self._kept is not None:
            self._kept.clear()

    def by_type(self, etype: str) -> List[TraceEvent]:
        """All kept events of type ``etype`` (exact match)."""
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

    def clear(self) -> None:
        return None


#: the shared no-op tracer installed on every network by default.
NULL_TRACER = NullTracer()
