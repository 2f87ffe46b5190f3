"""The trace event model and the tracer itself: the one event ledger.

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
shared :data:`~repro.trace.null.NULL_TRACER` (in :mod:`repro.trace.null`,
so an untraced run never compiles this module) -- its methods do
nothing, allocate nothing, and are guarded by ``enabled`` checks on the
hot paths, so the exact cost accounting of every experiment is
byte-identical with or without the layer compiled in.  Enabling tracing never touches the scheduler,
the metrics, or any RNG, so a traced run *also* produces identical
costs and message counts -- the trace is a pure observer.

The same ledger feeds the invariant monitors: a monitored run builds
``Tracer(scheduler, hub, keep=trace)``, and each drain hands its rows
to the :class:`~repro.monitor.hub.MonitorHub` before the retention
step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.sim import Scheduler

#: sim-time between ledger drains on the :meth:`Tracer.emit` path
#: (drains also run on segment fill and before any observation).
DRAIN_INTERVAL = 50.0


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
        detail: free-form event payload (token values, reasons, ...);
            ``None`` builds an empty dict.

    Equality is identity; compare events field by field.
    """

    __slots__ = ("id", "parent_id", "time", "etype", "scope", "category",
                 "src", "dst", "kind", "detail")

    def __init__(
        self,
        id: int,
        parent_id: Optional[int],
        time: float,
        etype: str,
        scope: str = "default",
        category: Optional[str] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        kind: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = id
        self.parent_id = parent_id
        self.time = time
        self.etype = etype
        self.scope = scope
        self.category = category
        self.src = src
        self.dst = dst
        self.kind = kind
        self.detail = {} if detail is None else detail


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


class Site:
    """One event type's emit point; each row carries its site last.

    Its emitters are bound methods that reach the ledger through
    :attr:`tracer`, so a deep copy of a running system emits into its
    own ledger.  An event type has one cost ``category``, which
    :meth:`Tracer.call_site_batch` sets.
    """

    __slots__ = ("etype", "category", "tracer")

    def __init__(self, etype: str, tracer: "Tracer") -> None:
        self.etype = etype
        self.category: Optional[str] = None
        self.tracer = tracer

    def append(self, scope, src, dst, kind=None, parent=None, detail=None):
        """Append one row of this site's etype and category, with
        ``detail`` as its payload, and drain on segment fill; returns
        the event id."""
        tracer = self.tracer
        if parent is None:
            stack = tracer._stack
            if stack:
                parent = stack[-1]
        event_id = tracer._next_id
        tracer._next_id = event_id + 1
        rows = tracer._ledger
        rows.append((
            event_id, parent, tracer.scheduler.now, scope, src, dst, kind,
            detail, self.category, self,
        ))
        if len(rows) >= tracer._segment_cap:
            tracer.drain_batches()
        return event_id


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
    emission order to its subscribers: first the monitor hub, if any
    (``hub.consume_batch(rows, now)``), then, if the ledger keeps a
    trace, the retention step that builds :attr:`events`.

    Causality is tracked with an explicit context stack: the network
    pushes the receive event's id around each handler dispatch, so any
    event emitted from inside the handler (sends, state changes) is
    parented to the receive that triggered it.  Send events additionally
    stamp their id onto the message envelope, which the matching receive
    uses as its parent -- chaining causality across the wire.

    Args:
        scheduler: the clock every row is stamped with.
        hub: the :class:`~repro.monitor.hub.MonitorHub` each drain
            feeds, or ``None``.
        keep: keep the trace as :class:`TraceEvent` records.
    """

    enabled = True

    def __init__(self, scheduler: Scheduler, hub=None,
                 keep: bool = True) -> None:
        self.scheduler = scheduler
        self.hub = hub
        if hub is not None:
            hub.ledger = self
        self._next_id = 0
        self._stack: List[Optional[int]] = []
        self._sites: Dict[str, Site] = {}
        #: the shared append segment: every site's rows land here, so
        #: they are already in global emission order (the same order
        #: that allocates the monotone event ids) and a drain consumes
        #: them without collecting or sorting.  Consumed in place and
        #: cleared.
        self._ledger: List[tuple] = []
        self._segment_cap = 8192
        self._drain_due = DRAIN_INTERVAL
        self._draining = False
        #: the kept trace, or ``None`` when this ledger keeps none.
        self._kept: Optional[List[TraceEvent]] = [] if keep else None

    def _site(self, etype: str) -> Site:
        """``etype``'s site, compiled on first use: by the hub, which
        resolves how its rows are replayed, or as a plain
        :class:`Site`."""
        site = self._sites.get(etype)
        if site is None:
            hub = self.hub
            site = self._sites[etype] = (
                Site(etype, self) if hub is None
                else hub.compile_site(etype, self)
            )
        return site

    def emit(
        self,
        etype: str,
        *,
        scope: str = "default",
        src: Optional[str] = None,
        dst: Optional[str] = None,
        kind: Optional[str] = None,
        parent: Optional[int] = None,
        **detail: Any,
    ) -> int:
        """Record one event through ``etype``'s :meth:`Site.append`,
        drain when the sim-time quantum is due, and return its id.

        ``parent`` defaults to the innermost active causal context (the
        receive being handled), or ``None`` at the top level.
        """
        site = self._sites.get(etype)
        if site is None:
            site = self._site(etype)
        event_id = site.append(scope, src, dst, kind, parent,
                               detail if detail else None)
        if self.scheduler.now >= self._drain_due:
            self.drain_batches()
        return event_id

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        """The emitter for one hot instrumentation point.

        Gives ``etype``'s site its ``category`` and returns the bound
        :meth:`Site.append`, which appends the row :meth:`emit` would
        and drains on segment fill -- or, under a hub, the emitter
        :meth:`~repro.monitor.hub.MonitorHub.call_site_batch` picks.
        (The sim-time drain quantum is checked only on the :meth:`emit`
        path and before any observation; drain cadence is semantically
        invisible, so the hottest sites skip the clock comparison.)
        Every hot site makes this one call when the ledger is
        installed.
        """
        site = self._site(etype)
        site.category = category
        hub = self.hub
        return site.append if hub is None else hub.call_site_batch(site)

    def drain_batches(self) -> int:
        """Consume every pending row, then clear the segment in place.

        The hub, if any, replays the rows first; the retention step
        (when a trace is kept) then turns them into :class:`TraceEvent`
        records.  Returns the number of rows drained.  Reentrant calls
        (a monitor running inside the replay) are no-ops.
        """
        if self._draining:
            return 0
        rows = self._ledger
        now = self.scheduler.now
        self._drain_due = now + DRAIN_INTERVAL
        count = len(rows)
        if count == 0:
            return 0
        if self.hub is not None:
            self._draining = True
            try:
                self.hub.consume_batch(rows, now)
            finally:
                self._draining = False
        if self._kept is not None:
            self._retain(rows)
        del rows[:]
        return count

    def _retain(self, rows: Sequence[tuple]) -> None:
        """The retention step: one :class:`TraceEvent` per row."""
        keep = self._kept.append
        for (event_id, parent, time, scope, src, dst, kind, detail,
             category, site) in rows:
            keep(TraceEvent(
                event_id, parent, time, site.etype, scope, category, src,
                dst, kind, detail,
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
