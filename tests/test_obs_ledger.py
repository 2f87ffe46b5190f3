"""Unit tests for the batched ledger mechanics (repro.obs.ledger).

The hot-path half of the batched observability pipeline: the site
emitters handed out by :meth:`Tracer.call_site_batch` and
:meth:`MonitorHub.call_site_batch`, the shared append segment, drain
triggers (segment fill / explicit), the retention step that keeps a
trace, and the counters the ``/invariants`` endpoint reports.
Equivalence with per-event dispatch is covered separately in
test_obs_equivalence.py.
"""

from __future__ import annotations

import pytest

from repro.monitor import (
    Monitor,
    MonitorHub,
    default_monitors,
    replay_events,
)
from repro.obs.ledger import (
    HEALTH_RECV,
    HEALTH_SEND,
    LIVENESS_TICK,
    LIVENESS_WIRELESS_UP,
    health_code,
    liveness_code,
)
from repro.trace import NULL_TRACER, Tracer


class FakeScheduler:
    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending_count = 0


def make_hub(keep_trace=False):
    hub = MonitorHub(None, default_monitors())
    if keep_trace:
        hub.keep_trace()
    hub.scheduler = FakeScheduler()
    return hub


class TestEtypeCodes:
    def test_health_codes(self):
        assert health_code("send.fixed") == HEALTH_SEND
        assert health_code("send.wireless_up") == HEALTH_SEND
        assert health_code("recv") == HEALTH_RECV
        assert health_code("mh.join") == 0

    def test_liveness_codes(self):
        assert liveness_code("send.fixed") == LIVENESS_TICK
        assert liveness_code("send.wireless_up") == LIVENESS_WIRELESS_UP
        assert liveness_code("recv") == LIVENESS_TICK


#: every hot instrumentation point: (etype, category, detail).
HOT_SITES = [
    ("send.local", None, None),
    ("send.fixed", "fixed", None),
    ("send.wireless_up", "wireless", None),
    ("send.wireless_down", "wireless", None),
    ("recv", None, None),
    ("mss.handoff", None, {"mh_id": "mh-0", "shares": ["L2"]}),
    ("mh.leave", None, {"r": 3, "to": "mss-2"}),
    ("mh.join", None, {"prev": "mss-1"}),
    ("search.charge", "search", None),
    ("search.probes", "search_probe", {"count": 2, "home": "mss-0"}),
    ("cs.enter", None, {"proxy": "mss-1"}),
    ("cs.exit", None, {"proxy": "mss-1", "aborted": True,
                       "reason": "mh.crash"}),
]


class Spy(Monitor):
    """A wildcard monitor that keeps the fields of what the hub
    dispatches to it (a drain reuses one scratch event)."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_event(self, event):
        self.seen.append(fields(event))


def make_recorder(kind):
    if kind == "tracer":
        recorder = Tracer(FakeScheduler())
    else:
        recorder = MonitorHub(None, [Spy()]).keep_trace()
        recorder.scheduler = FakeScheduler()
    recorder.scheduler.now = 2.5
    return recorder


def fields(event):
    return (event.id, event.parent_id, event.time, event.etype, event.scope,
            event.category, event.src, event.dst, event.kind, event.detail)


class TestSiteEmitterIsEmit:
    """A plain tracer and a hub keeping the trace: what a hot site's
    emitter keeps is what the equivalent emit keeps, and a hub's
    monitors see exactly the kept events."""

    @pytest.mark.parametrize("kind", ["tracer", "recording_hub"])
    @pytest.mark.parametrize("etype, category, detail", HOT_SITES)
    def test_site_emitter_records_what_emit_records(self, kind, etype,
                                                    category, detail):
        via_site, via_emit = make_recorder(kind), make_recorder(kind)
        append = via_site.call_site_batch(etype, category)
        assert append is not None
        calls = [  # (parent, kind) under an open causal context
            (None, None), (None, "l2.request"), (41, "l2.reply"),
        ]
        for recorder in (via_site, via_emit):
            with recorder.context(5):
                for parent, msg_kind in calls:
                    if recorder is via_site:
                        event_id = append("L2", "mss-0", "mh-0", msg_kind,
                                          parent, detail)
                    else:
                        event_id = recorder.emit(
                            etype, scope="L2", category=category,
                            src="mss-0", dst="mh-0", kind=msg_kind,
                            parent=parent, **(detail or {}))
                    assert event_id == recorder.events[-1].id
        assert ([fields(e) for e in via_site.events]
                == [fields(e) for e in via_emit.events])
        assert [e.parent_id for e in via_site.events] == [5, 5, 41]
        if kind == "recording_hub":
            assert via_site.monitors[0].seen == [
                fields(e) for e in via_site.events]


class TestCallSiteBatch:
    def test_every_tracer_hands_out_an_emitter(self):
        for kind in ("tracer", "recording_hub"):
            assert make_recorder(kind).call_site_batch("recv") is not None
        assert make_hub().call_site_batch("recv") is not None
        assert NULL_TRACER.call_site_batch("recv")("L2", "a", "b") is None

    def test_default_hub_keeps_no_trace(self):
        # A hub keeps no trace unless asked: its rows are replayed
        # through the monitors and dropped.
        hub = MonitorHub(None, default_monitors())
        hub.scheduler = FakeScheduler()
        append = hub.call_site_batch("recv")
        append("s", "mss-0", "mss-1", kind="l2.request")
        assert len(hub._ledger) == 1
        assert hub.events == []
        assert hub.rows_dispatched == 1 and not hub._ledger

    def test_a_kept_trace_is_built_at_drain(self):
        # A kept trace is one more drain step: the emit appends a row,
        # and the drain builds the TraceEvent with its full detail.
        hub = make_hub(keep_trace=True)
        append = hub.call_site_batch("mss.handoff")
        event_id = append("L2", "mss-0", "mss-1",
                          detail={"mh_id": "mh-0"})
        assert len(hub._ledger) == 1 and hub._kept == []
        (event,) = hub.events
        assert (event.id, event.etype) == (event_id, "mss.handoff")
        assert event.detail == {"mh_id": "mh-0"}
        assert hub.rows_dispatched == 1 and hub.drains == 1

    def test_appender_returns_monotone_ids(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        ids = [append("s", "mss-0", "mss-1", kind="l2.request",
                      parent=None) for _ in range(4)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 4

    def test_rows_share_one_ledger_in_emission_order(self):
        hub = make_hub()
        recv = hub.call_site_batch("recv")
        handoff = hub.call_site_batch("mss.handoff")
        recv("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        handoff("s", "mss-1", "mss-2")
        recv("s", "mss-1", "mss-0", kind="l2.grant", parent=None)
        ledger = hub._ledger
        assert len(ledger) == 3
        ids = [row if isinstance(row, float) else row[0]
               for row in ledger]
        assert ids == sorted(ids)

    def test_drain_replays_and_clears_in_place(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        ledger = hub._ledger
        for i in range(10):
            hub.scheduler.now = float(i)
            append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.drain_batches() == 10
        assert hub.drains == 1
        assert hub.rows_dispatched == 10
        # Cleared in place: appenders keep their binding to the list.
        assert hub._ledger is ledger and not ledger
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert len(ledger) == 1

    def test_segment_fill_triggers_drain(self):
        hub = make_hub()
        hub._segment_cap = 64
        append = hub.call_site_batch("recv")
        for i in range(64):
            append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.drains == 1
        assert hub.rows_dispatched == 64
        assert not hub._ledger

    def test_certified_until_tracks_drain_clock(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        hub.scheduler.now = 12.5
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.certified_until == 0.0
        hub.scheduler.now = 40.0
        hub.drain_batches()
        assert hub.certified_until == 40.0

    def test_finalize_drains_pending_rows(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        hub.finalize()
        assert not hub._ledger
        assert hub.rows_dispatched == 1


class TestPlainSendFastRows:
    def test_plain_ticking_send_appends_compact_row(self):
        """Sends that only feed the wildcard monitors land as bare
        timestamps (the consume loop folds them into the health
        counters), while gated kinds keep the full row."""
        hub = make_hub()
        append = hub.call_site_batch("send.fixed")
        hub.scheduler.now = 3.0
        append("s", "mss-0", "mss-1", kind="l2.request")
        hub.scheduler.now = 4.0
        append("s", "mss-0", "mss-1", kind="l2.token")
        kinds = [type(row).__name__ for row in hub._ledger]
        assert kinds == ["float", "tuple"]

    def test_a_kept_trace_writes_full_rows(self):
        """Every kept event needs its whole row, so no row is
        compact when the hub keeps the trace."""
        hub = make_hub(keep_trace=True)
        append = hub.call_site_batch("send.fixed")
        append("s", "mss-0", "mss-1", kind="l2.request")
        append("s", "mss-0", "mss-1", kind="l2.token")
        kinds = [type(row).__name__ for row in hub._ledger]
        assert kinds == ["tuple", "tuple"]
        assert [e.kind for e in hub.events] == ["l2.request", "l2.token"]

    def test_compact_rows_still_count_and_tick(self):
        from repro.monitor.health import HealthMonitor
        from repro.monitor.liveness import LivenessMonitor

        hub = make_hub()
        append = hub.call_site_batch("send.fixed")
        for i in range(5):
            hub.scheduler.now = float(i)
            append("s", "mss-0", "mss-1", kind="l2.request")
        hub.drain_batches()
        health = hub.monitor(HealthMonitor)
        liveness = hub.monitor(LivenessMonitor)
        assert health._sends == 5
        assert liveness._last_event_time == 4.0


class TestStandardLoopMatchesPerEvent:
    """One consume loop serves every batch shape.  The parent commit
    forked on the batch's time span (a *dense* loop when it fit inside
    the liveness stall gap, a *sparse* one otherwise); both shapes must
    keep matching per-event dispatch, with and without a kept trace
    (compact rows and full rows)."""

    #: (time, etype, kind, src): a request goes pending at t=1 and is
    #: never served before t=14, so the request-age deadline (10) fires
    #: inside a batch whose whole span (14) is within the stall gap (20).
    DENSE = [(0.0, "send.fixed", "l2.request", "mss-0"),
             (1.0, "send.wireless_up", "l2.request", "mh-0")] + [
        (float(t), "send.fixed", "l2.reply", "mss-1")
        for t in range(2, 15)
    ]
    #: a quiet spell of 44 > stall gap with the request still pending
    #: (scheduler stall), a token that then starves, and the grant.
    SPARSE = [
        (16.0, "token.arrive", None, "mss-0"),
        (60.0, "send.fixed", "l2.reply", "mss-1"),
        (61.0, "recv", "l2.reply", "mss-1"),
        (62.0, "cs.enter", None, "mh-0"),
        (63.0, "send.fixed", "l2.token", "mss-0"),
    ]

    @staticmethod
    def monitors():
        return default_monitors(request_deadline=10.0, token_deadline=20.0,
                                health_interval=5.0)

    def run(self, keep_trace):
        hub = MonitorHub(None, self.monitors())
        if keep_trace:
            hub.keep_trace()
        hub.scheduler = FakeScheduler()
        for batch in (self.DENSE, self.SPARSE):
            for t, etype, kind, src in batch:
                hub.scheduler.now = t
                # What every hot emit site does: one call to the site
                # emitter the hub hands out.
                hub.call_site_batch(etype)("L2", src, "mss-1", kind)
            hub.drain_batches()
        return hub

    def test_dense_and_sparse_batches_match_the_recording_hub(self):
        from repro.monitor.health import HealthMonitor
        from repro.monitor.liveness import LivenessMonitor

        recording = self.run(keep_trace=True)
        ledger = self.run(keep_trace=False)
        assert ledger.drains == 2 and recording.drains == 2
        # The per-event reference: dispatch over the kept trace.
        reference = replay_events(recording.events, self.monitors(),
                                  finalize=False)
        expected = reference.monitor(LivenessMonitor).violations
        assert [v.invariant for v in expected] == [
            "liveness.request_age",
            "liveness.scheduler_stall",
            "liveness.token_starvation",
        ]
        for hub in (ledger, recording):
            assert ([str(v) for v in hub.monitor(LivenessMonitor).violations]
                    == [str(v) for v in expected])
            assert (hub.monitor(HealthMonitor).samples
                    == reference.monitor(HealthMonitor).samples)
        assert [s["t"] for s in ledger.monitor(HealthMonitor).samples] == [
            0.0, 5.0, 10.0, 16.0, 60.0]
