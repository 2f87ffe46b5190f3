"""Unit tests for the batched ledger mechanics (repro.obs.ledger).

The hot-path half of the batched observability pipeline: appender
closures handed out by :meth:`MonitorHub.call_site_batch`, the shared
append segment, drain triggers (segment fill / explicit), and the
counters the ``/invariants`` endpoint reports.  Equivalence with
per-event dispatch is covered separately in test_obs_equivalence.py.
"""

from __future__ import annotations

from repro.monitor import MonitorHub, default_monitors
from repro.obs.ledger import (
    HEALTH_RECV,
    HEALTH_SEND,
    LIVENESS_TICK,
    LIVENESS_WIRELESS_UP,
    health_code,
    liveness_code,
)


class FakeScheduler:
    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending_count = 0


def make_hub(**kwargs):
    kwargs.setdefault("record", False)
    hub = MonitorHub(None, default_monitors(), **kwargs)
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


class TestCallSiteBatch:
    def test_per_event_hub_hands_out_no_appender(self):
        # MonitorHub records by default (it is a Tracer).
        hub = MonitorHub(None, default_monitors())
        assert hub.call_site_batch("recv") is None

    def test_record_mode_hands_out_no_appender(self):
        # With record=True every event must become a TraceEvent with
        # its full detail, so sites fall back to emit().
        hub = make_hub(record=True)
        assert hub.call_site_batch("recv") is None

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
    keep matching the recording hub's per-event dispatch."""

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

    def run(self, record):
        hub = MonitorHub(
            None,
            default_monitors(request_deadline=10.0, token_deadline=20.0,
                             health_interval=5.0),
            record=record,
        )
        hub.scheduler = FakeScheduler()
        for batch in (self.DENSE, self.SPARSE):
            for t, etype, kind, src in batch:
                hub.scheduler.now = t
                # What every hot emit site does: the ledger appender
                # when the hub hands one out, emit() otherwise.
                append = hub.call_site_batch(etype)
                if append is not None:
                    append("L2", src, "mss-1", kind)
                else:
                    hub.emit(etype, scope="L2", src=src, dst="mss-1",
                             kind=kind)
            hub.drain_batches()
        return hub

    def test_dense_and_sparse_batches_match_the_recording_hub(self):
        from repro.monitor.health import HealthMonitor
        from repro.monitor.liveness import LivenessMonitor

        reference = self.run(record=True)
        ledger = self.run(record=False)
        assert ledger.drains == 2 and reference.drains == 0
        expected = reference.monitor(LivenessMonitor).violations
        assert [v.invariant for v in expected] == [
            "liveness.request_age",
            "liveness.scheduler_stall",
            "liveness.token_starvation",
        ]
        assert ([str(v) for v in ledger.monitor(LivenessMonitor).violations]
                == [str(v) for v in expected])
        assert (ledger.monitor(HealthMonitor).samples
                == reference.monitor(HealthMonitor).samples)
        assert [s["t"] for s in ledger.monitor(HealthMonitor).samples] == [
            0.0, 5.0, 10.0, 16.0, 60.0]
