"""The monitor hub: fan-out from the trace stream to the monitors.

:class:`MonitorHub` *is* a tracer — it subclasses
:class:`~repro.trace.events.Tracer` and is installed as
``network.trace``, so every instrumentation point that already feeds
the trace layer feeds the monitors too, through the same
``_trace_on``-style guard that makes the whole layer free when off.

Emits append rows to the tracer's one shared ledger segment and the
monitors consume them in drained batches with per-event semantics
intact (:meth:`MonitorHub.consume_batch`), so monitoring stays off the
protocol's critical path.  The hub adds only two things to the
tracer: compiled site emitters that write compact rows for the
hottest sends, and the batch consume.  ``Simulation(trace=True,
monitors=...)`` keeps the trace as one more drain step
(:meth:`~repro.trace.events.Tracer.keep_trace`); the monitors see the
same rows either way, so their verdicts are identical with and
without a kept trace.

Offline replay: :func:`replay_events` drives the same monitors over a
recorded event list, one event at a time through :meth:`dispatch` --
the per-event reference the ledger is tested against, and how the
``repro monitor`` CLI certifies the walkthrough scenarios.
Part of the online monitoring layer (ROADMAP observability arc).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.monitor.base import Monitor, Violation
from repro.monitor.liveness import _REQUEST_SUFFIXES
from repro.obs.ledger import (
    HEALTH_RECV,
    HEALTH_SEND,
    LIVENESS_TICK,
    MODE_PLAIN,
    MODE_RECV_STD,
    MODE_SEND_GATED,
    LedgerSite,
)
from repro.trace.events import TraceEvent, Tracer

__all__ = ["MonitorHub", "replay_events"]

#: one dispatch target: ``(on_event, kind_suffixes)``; ``None`` suffixes
#: means the monitor takes every event of the etype.
_Target = Tuple[Any, Optional[Tuple[str, ...]]]

#: shared empty detail payload for scratch replay events; monitors are
#: pure observers and never retain or mutate the dict.
_EMPTY_DETAIL: Dict[str, Any] = {}


def _fill(scratch: TraceEvent, row: tuple, etype: str) -> None:
    """Materialize one ledger row into the reused scratch event."""
    scratch.id = row[0]
    scratch.parent_id = row[1]
    scratch.time = row[2]
    scratch.etype = etype
    scratch.scope = row[3]
    scratch.src = row[4]
    scratch.dst = row[5]
    scratch.kind = row[6]
    detail = row[7]
    scratch.detail = detail if detail is not None else _EMPTY_DETAIL
    scratch.category = row[8]


def _startswith_mss(host_id: str) -> bool:
    """FifoOrderMonitor's unbound-network fallback for ``_is_mss``."""
    return host_id.startswith("mss")


class MonitorHub(Tracer):
    """A tracer that evaluates invariant monitors online.

    Monitors are pure observers fed from drained ledger rows (online)
    or :meth:`dispatch` (offline replay).  The hub aggregates their
    violations and exposes one ``finalize()``/``ok``/``report()``
    surface for tests, the facade, and the CLI.

    When are the monitor objects current?  The hub holds emitted rows
    until the next drain; the monitors have seen every event

    * after :meth:`Simulation.run <repro.facade.Simulation.run>` or
      ``Simulation.drain`` returns (both end with a drain),
    * after any hub observation (:attr:`violations`, :attr:`ok`,
      :meth:`report`, :meth:`finalize`), or
    * after an explicit :meth:`drain_batches`.

    Code that drives ``sim.scheduler`` directly and reads a monitor
    object's own state lags by at most
    :data:`~repro.trace.events.DRAIN_INTERVAL` sim-time (or one full
    segment of rows).

    The hub keeps one wall-clock figure, :attr:`monitor_wall_s`: seconds
    spent replaying drained batches (``/metrics`` exports it as
    ``repro_obs_wall_seconds{section="monitor"}``).  :attr:`drains`,
    :attr:`rows_dispatched` and :attr:`certified_until` (rows emitted
    after this instant still await replay) feed ``/invariants``.  A hub
    keeps no trace unless :meth:`keep_trace` is called.

    Args:
        scheduler: clock source (``None`` for offline replay).
        monitors: the monitor instances to drive.
    """

    def __init__(self, scheduler, monitors: Sequence[Monitor]) -> None:
        super().__init__(scheduler)
        self._kept = None  # no trace until keep_trace()
        self.monitors: List[Monitor] = list(monitors)
        self.network = None
        self._finalized = False
        #: per-event delivery (offline dispatch): etype -> ordered
        #: targets, resolved on first use.
        self._table: Dict[str, Tuple[_Target, ...]] = {}
        self._scratch = TraceEvent(id=0, parent_id=None, time=0.0, etype="")
        for monitor in self.monitors:
            monitor.attach(self)
        # The standard consume loop folds the two standard wildcard
        # monitors (Liveness then Health, in that order, at the end of
        # the list) inline; any other wildcard layout replays through
        # the generic scratch-event loop instead.
        self._standard_layout = False
        self._liveness = None
        self._health = None
        self._liveness_step = 0.0
        self._fifo = None
        self._rel = None
        self._detect_standard_layout()

    # -- wiring -------------------------------------------------------
    def bind(self, network) -> None:
        """Give monitors ground-truth access to the live network."""
        self.network = network
        for monitor in self.monitors:
            monitor.bind(network)

    def monitor(self, cls) -> Optional[Monitor]:
        """The first registered monitor of class ``cls``, if any."""
        for monitor in self.monitors:
            if isinstance(monitor, cls):
                return monitor
        return None

    # -- dispatch-table compilation -----------------------------------
    def _targets(self, etype: str) -> Tuple[Tuple[_Target, ...], int]:
        """Targets for ``etype`` in delivery order -- explicit interests
        in registration order, then wildcards -- plus the count of
        explicit ones."""
        ordered: List[Monitor] = [
            m
            for m in self.monitors
            if m.interests is not None and etype in m.interests
        ]
        explicit_count = len(ordered)
        ordered += [m for m in self.monitors if m.interests is None]
        targets = tuple(
            (
                monitor.on_event,
                monitor.kind_gates.get(etype) if monitor.kind_gates
                else None,
            )
            for monitor in ordered
        )
        return targets, explicit_count

    # -- ledger: compilation ------------------------------------------
    def _detect_standard_layout(self) -> None:
        """Decide whether drained batches may use the inline folds."""
        from repro.monitor.health import HealthMonitor
        from repro.monitor.liveness import LivenessMonitor
        from repro.monitor.safety import (
            FifoOrderMonitor,
            ReliableDeliveryMonitor,
        )

        monitors = self.monitors
        if (
            len(monitors) >= 2
            and type(monitors[-2]) is LivenessMonitor
            and type(monitors[-1]) is HealthMonitor
            and [m for m in monitors if m.interests is None]
            == [monitors[-2], monitors[-1]]
        ):
            self._liveness = monitors[-2]
            self._health = monitors[-1]
            self._liveness_step = self._liveness.check_interval
            self._standard_layout = True
            # Exact-type finds for the per-row inline transitions the
            # consume loop performs on the hottest sites; a subclass
            # (overridden on_event) never matches, so it replays
            # through the generic scratch path instead.
            for monitor in monitors:
                if type(monitor) is FifoOrderMonitor and self._fifo is None:
                    self._fifo = monitor
                if (type(monitor) is ReliableDeliveryMonitor
                        and self._rel is None):
                    self._rel = monitor

    def _compile_site(self, etype: str) -> LedgerSite:
        """Resolve, once, how ledger rows of ``etype`` are replayed."""
        targets, explicit_count = self._targets(etype)
        plan = targets[:explicit_count] or None
        site = LedgerSite(etype, targets, plan)
        if self._standard_layout and plan is not None:
            fifo, rel = self._fifo, self._rel
            if (
                etype == "recv"
                and fifo is not None
                and rel is not None
                and plan == ((fifo.on_event, None), (rel.on_event, None))
                and site.health_code == HEALTH_RECV
                and site.liveness_code == LIVENESS_TICK
            ):
                site.mode = MODE_RECV_STD
            elif (
                len(plan) == 1
                and plan[0][1] is not None
                and site.health_code == HEALTH_SEND
                and site.liveness_code == LIVENESS_TICK
            ):
                site.mode = MODE_SEND_GATED
                site.gate_fn = plan[0][0]
                site.gate_suffixes = plan[0][1]
        self._sites[etype] = site
        return site

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        """Compiled ledger appender for one hot instrumentation point.

        The tracer's row appender, except at plain ticking sends when
        no trace is kept: there the row can be compact, because the
        monitors need little of it and no :class:`TraceEvent` is ever
        built from it.
        """
        site = self._sites.get(etype)
        if site is None:
            site = self._compile_site(etype)
        if (
            self._kept is None
            and self._standard_layout
            and site.health_code == HEALTH_SEND
            and site.liveness_code == LIVENESS_TICK
        ):
            # Plain ticking sends: the only consume-side effects are a
            # health send-count and a liveness clock tick, neither of
            # which needs anything beyond the timestamp.  The row is a
            # bare clock value, float or int (the consume loop
            # type-switches on "not a tuple"), which skips the parent
            # resolution and the 10-slot tuple build on the hottest
            # send paths.  Kind-gated sites still write
            # a full row for the (rare) kinds their plan target
            # consumes -- e.g. ``*.token`` feeding TokenUniqueness.
            if site.mode == MODE_SEND_GATED:
                def append_send(
                    scope, src, dst, kind=None, parent=None, detail=None,
                    _self=self, _site=site, _rows=self._ledger,
                    _stack=self._stack, _scheduler=self.scheduler,
                    _category=category, _cap=self._segment_cap,
                    _gate=site.gate_suffixes,
                ):
                    event_id = _self._next_id
                    _self._next_id = event_id + 1
                    if kind is not None and kind.endswith(_gate):
                        if parent is None and _stack:
                            parent = _stack[-1]
                        _rows.append((
                            event_id, parent, _scheduler.now, scope,
                            src, dst, kind, detail, _category, _site,
                        ))
                    else:
                        _rows.append(_scheduler.now)
                    if len(_rows) >= _cap:
                        _self.drain_batches()
                    return event_id

                return append_send
            if site.mode == MODE_PLAIN:
                def append_plain_send(
                    scope, src, dst, kind=None, parent=None, detail=None,
                    _self=self, _rows=self._ledger,
                    _scheduler=self.scheduler, _cap=self._segment_cap,
                ):
                    event_id = _self._next_id
                    _self._next_id = event_id + 1
                    _rows.append(_scheduler.now)
                    if len(_rows) >= _cap:
                        _self.drain_batches()
                    return event_id

                return append_plain_send
        return super().call_site_batch(etype, category)

    # -- ledger: consume ----------------------------------------------
    def consume_batch(self, rows: Sequence[tuple]) -> None:
        """Replay one ordered batch of ledger rows with per-event
        semantics (delivery order, trace ids, violation attribution
        all match per-event :meth:`dispatch`)."""
        if self._standard_layout:
            self._consume_standard(rows)
        else:
            self._consume_generic(rows)

    def _consume_generic(self, rows: Sequence[tuple]) -> None:
        """Scratch-event replay for any monitor layout."""
        scratch = self._scratch
        for row in rows:
            site = row[9]
            kind = row[6]
            _fill(scratch, row, site.etype)
            for on_event, suffixes in site.targets:
                if suffixes is not None and (
                    kind is None or not kind.endswith(suffixes)
                ):
                    continue
                on_event(scratch)
        scratch.detail = None  # type: ignore[assignment]

    def _consume_standard(self, rows: Sequence) -> None:
        """The standard-layout replay loop.

        Rows are either 10-tuples or bare clock values (plain ticking
        sends: just the timestamp, float or int -- see
        :meth:`call_site_batch`).  Tuple dispatch switches on the
        site's compiled ``mode``: the two
        hottest shapes (``recv`` feeding FifoOrder+ReliableDelivery,
        kind-gated sends feeding TokenUniqueness) run their state
        transitions inline on captured monitor internals, everything
        else replays through a reused scratch event.  The two trailing
        wildcard monitors are folded inline in every mode —
        HealthMonitor's counters and LivenessMonitor's clock/stall/
        deadline logic run on locals and write back at sample points
        and at the end — preserving the per-event delivery order
        (explicit targets, then liveness, then health) exactly.
        Violation-bearing rows take the slow path (a scratch build plus
        the monitor's own ``on_event``), so violation messages and
        attribution stay byte-identical with per-event dispatch.  Every
        ticking row pays the stall and deadline compares: stall
        attribution needs the exact previous ticking time."""
        liveness = self._liveness
        health = self._health
        pending = liveness.pending
        flagged = liveness._flagged
        last_token = liveness._last_token
        starved = liveness._starved
        stall_gap = liveness.stall_gap
        check_step = self._liveness_step
        next_check = liveness._next_check
        last_time = liveness._last_event_time
        check_deadlines = liveness._check_deadlines
        h_sends = health._sends
        h_recvs = health._recvs
        h_faults = health._faults
        h_cs = health._cs_entries
        next_sample = health._next_sample
        interval = health.interval
        scratch = self._scratch
        fifo = self._fifo
        rel = self._rel
        if fifo is not None and rel is not None:
            fifo_last = fifo._last
            fifo_skip = fifo._SKIP_KINDS
            fifo_on = fifo.on_event
            net = fifo.network
            is_mss = (net._mss.__contains__ if net is not None
                      else _startswith_mss)
            rel_sends = rel._sends
            rel_released = rel._released
            rel_on = rel.on_event
        for row in rows:
            if type(row) is not tuple:  # plain ticking send: time only
                t = row
                if pending:
                    if last_time is not None and t - last_time > stall_gap:
                        liveness._stall(t, last_time)
                    if t >= next_check:
                        check_deadlines(t)
                        next_check = t + check_step
                last_time = t
                h_sends += 1
                if t >= next_sample:
                    health._sends = h_sends
                    health._recvs = h_recvs
                    health._faults = h_faults
                    health._cs_entries = h_cs
                    liveness._next_check = next_check
                    liveness._last_event_time = last_time
                    health.sample(t)
                    next_sample = t + interval
                continue
            site = row[9]
            t = row[2]
            mode = site.mode
            if mode == 2:  # MODE_RECV_STD: inline FifoOrder + Reliable
                parent = row[1]
                if parent is not None:
                    kind = row[6]
                    if kind not in fifo_skip:
                        src = row[4]
                        dst = row[5]
                        if (src is not None and dst is not None
                                and is_mss(src) and is_mss(dst)):
                            channel = (src, dst)
                            last = fifo_last.get(channel)
                            if last is None or parent > last:
                                fifo_last[channel] = parent
                            else:  # violation: full body for the text
                                _fill(scratch, row, site.etype)
                                fifo_on(scratch)
                    meta = rel_sends.get(parent)
                    if meta is not None:
                        channel, seq = meta
                        if seq > rel_released.get(channel, 0):
                            rel_released[channel] = seq
                        else:
                            _fill(scratch, row, site.etype)
                            rel_on(scratch)
                if pending:
                    if last_time is not None and t - last_time > stall_gap:
                        liveness._stall(t, last_time)
                    if t >= next_check:
                        check_deadlines(t)
                        next_check = t + check_step
                last_time = t
                h_recvs += 1
            elif mode == 3:  # MODE_SEND_GATED: one suffix-gated target
                kind = row[6]
                if kind is not None and kind.endswith(site.gate_suffixes):
                    _fill(scratch, row, site.etype)
                    site.gate_fn(scratch)
                if pending:
                    if last_time is not None and t - last_time > stall_gap:
                        liveness._stall(t, last_time)
                    if t >= next_check:
                        check_deadlines(t)
                        next_check = t + check_step
                last_time = t
                h_sends += 1
            else:
                kind = row[6]
                if mode == 0:  # MODE_GENERIC: scratch replay of plan
                    built = False
                    for on_event, suffixes in site.plan:
                        if suffixes is not None and (
                            kind is None or not kind.endswith(suffixes)
                        ):
                            continue
                        if not built:
                            _fill(scratch, row, site.etype)
                            built = True
                        on_event(scratch)
                # -- LivenessMonitor.on_event, folded ------------------
                code = site.liveness_code
                if code == 2:
                    # send.wireless_up is kind-gated: non-request
                    # uplinks are not delivered to liveness at all.
                    if kind is not None and kind.endswith(_REQUEST_SUFFIXES):
                        pending.setdefault((row[3], row[4]), t)
                    else:
                        code = 0
                elif code == 3:
                    pending.setdefault((row[3], row[4]), t)
                elif code == 4:
                    key = (row[3], row[4])
                    pending.pop(key, None)
                    flagged.discard(key)
                elif code == 5:
                    last_token[row[3]] = t
                    starved.discard(row[3])
                if code:
                    if pending:
                        if (last_time is not None
                                and t - last_time > stall_gap):
                            liveness._stall(t, last_time)
                        if t >= next_check:
                            check_deadlines(t)
                            next_check = t + check_step
                    last_time = t
                # -- HealthMonitor.on_event, folded --------------------
                code = site.health_code
                if code == 1:
                    h_sends += 1
                elif code == 2:
                    h_recvs += 1
                elif code == 3:
                    h_faults += 1
                elif code == 4:
                    h_cs += 1
            if t >= next_sample:
                health._sends = h_sends
                health._recvs = h_recvs
                health._faults = h_faults
                health._cs_entries = h_cs
                liveness._next_check = next_check
                liveness._last_event_time = last_time
                health.sample(t)
                next_sample = t + interval
        health._sends = h_sends
        health._recvs = h_recvs
        health._faults = h_faults
        health._cs_entries = h_cs
        health._next_sample = next_sample
        liveness._next_check = next_check
        liveness._last_event_time = last_time
        scratch.detail = None  # type: ignore[assignment]

    # -- offline path -------------------------------------------------
    def dispatch(self, event: TraceEvent) -> None:
        """Feed one (recorded) event to the interested monitors.

        The per-event reference: the ledger compiles its sites from the
        same :meth:`_targets`, so online and replayed runs hand the
        same events to the same monitors in the same order.
        """
        targets = self._table.get(event.etype)
        if targets is None:
            targets = self._table[event.etype] = self._targets(
                event.etype)[0]
        kind = event.kind
        for on_event, suffixes in targets:
            if suffixes is not None and (
                kind is None or not kind.endswith(suffixes)
            ):
                continue
            on_event(event)

    # -- reporting ----------------------------------------------------
    def finalize(self, at: Optional[float] = None) -> None:
        """Run every monitor's end-of-run checks (idempotent).

        Pending ledger rows are drained first, so no event is ever
        finalized past."""
        if self._finalized:
            return
        self.drain_batches()
        self._finalized = True
        if at is None:
            at = self.scheduler.now if self.scheduler is not None else 0.0
        for monitor in self.monitors:
            monitor.finalize(at)

    @property
    def violations(self) -> List[Violation]:
        self.drain_batches()
        out: List[Violation] = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=attrgetter("time", "monitor", "invariant"))
        return out

    @property
    def ok(self) -> bool:
        self.drain_batches()
        return all(monitor.ok for monitor in self.monitors)

    def report(self) -> str:
        """A human-readable per-monitor summary."""
        self.drain_batches()
        lines = ["invariant monitors"]
        for monitor in self.monitors:
            n = len(monitor.violations)
            status = "ok" if n == 0 else f"{n} violation(s)"
            lines.append(f"  {monitor.name:<20} {status}")
            for violation in monitor.violations:
                lines.append(f"    {violation.render()}")
        return "\n".join(lines)


def replay_events(
    events: Iterable[TraceEvent],
    monitors: Sequence[Monitor],
    network=None,
    finalize: bool = True,
) -> MonitorHub:
    """Run ``monitors`` over a recorded event stream.

    Returns the hub (finalized at the last event's timestamp unless
    ``finalize=False``).  Pass the live ``network`` when available so
    ground-truth checks (location-view membership, per-MSS load) run;
    without it those checks are skipped, never wrong.
    """
    hub = MonitorHub(None, monitors)
    if network is not None:
        hub.bind(network)
    last_time = 0.0
    for event in events:
        hub.dispatch(event)
        last_time = event.time
    if finalize:
        hub.finalize(at=last_time)
    return hub
