"""Health telemetry: periodic gauge snapshots of a running simulation.

:class:`HealthMonitor` samples a small set of gauges every
``interval`` sim-time units (piggybacked on the event stream — the
monitor never schedules anything): message throughput and in-flight
backlog, scheduler depth, per-MSS cell load, the oldest pending
request's age (from a co-registered
:class:`~repro.monitor.liveness.LivenessMonitor`) and the cumulative
violation count.  The series exports as JSONL (one sample per line,
deterministic key order) or as a Prometheus-style text page of the
latest sample — the two formats dashboards and scrapers expect.

Sampling is edge-triggered: the first event at or past the next
boundary takes the sample, so a quiet stretch produces one late sample
rather than a burst of identical ones.  ``finalize`` always appends a
closing sample so the series covers the whole run.
Part of the online monitoring layer (ROADMAP observability arc).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.monitor.base import Monitor
from repro.monitor.liveness import LivenessMonitor
from repro.trace.events import TraceEvent

__all__ = ["HealthMonitor", "escape_label_value"]


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value per the text exposition format.

    Backslash, double-quote and newline are the only characters the
    format requires escaping inside ``label="..."``; everything else
    passes through verbatim.  Shared by :meth:`HealthMonitor.to_prometheus`
    and the live ``/metrics`` endpoint
    (:mod:`repro.obs.service`).
    """
    return (
        value.replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class HealthMonitor(Monitor):
    """Periodic gauge snapshots, exported as JSONL or Prometheus text."""

    name = "health"
    interests = None  # gauges need the full event stream

    def __init__(self, interval: float = 25.0) -> None:
        super().__init__()
        self.interval = float(interval)
        self.samples: List[Dict[str, Any]] = []
        self._next_sample = 0.0
        self._sends = 0
        self._recvs = 0
        self._faults = 0
        self._cs_entries = 0

    def on_event(self, event: TraceEvent) -> None:
        etype = event.etype
        if etype.startswith("send."):
            self._sends += 1
        elif etype == "recv":
            self._recvs += 1
        elif etype.startswith("fault.") or etype == "wireless.lost":
            self._faults += 1
        elif etype == "cs.enter":
            self._cs_entries += 1
        if event.time >= self._next_sample:
            self.sample(event.time)
            self._next_sample = event.time + self.interval

    def sample(self, now: float) -> Dict[str, Any]:
        """Take one gauge snapshot at sim-time ``now``."""
        record: Dict[str, Any] = {
            "t": now,
            "sends": self._sends,
            "recvs": self._recvs,
            "in_flight": self._sends - self._recvs,
            "faults": self._faults,
            "cs_entries": self._cs_entries,
        }
        network = self.network
        if network is not None:
            scheduler = network.scheduler
            record["pending_events"] = scheduler.pending_count
            record["events_processed"] = scheduler.events_processed
            record["mss_load"] = {
                mss_id: len(network.mss(mss_id).local_mhs)
                for mss_id in network.mss_ids()
            }
        hub = self.hub
        if hub is not None:
            liveness = hub.monitor(LivenessMonitor)
            if liveness is not None:
                record["pending_requests"] = len(liveness.pending)
                record["oldest_pending_age"] = (
                    liveness.oldest_pending_age(now))
            record["violations"] = sum(
                len(m.violations) for m in hub.monitors)
        self.samples.append(record)
        return record

    def finalize(self, now: float) -> None:
        self.sample(now)

    # -- exports ------------------------------------------------------
    def to_jsonl(self) -> str:
        """The full time-series, one JSON object per line."""
        return "".join(
            json.dumps(sample, sort_keys=True) + "\n"
            for sample in self.samples
        )

    def to_prometheus(self, prefix: str = "repro") -> str:
        """The latest sample as Prometheus text exposition format."""
        if not self.samples:
            return ""
        latest = self.samples[-1]
        lines: List[str] = []

        def gauge(name: str, value, help_text: str) -> None:
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} gauge")
            lines.append(f"{prefix}_{name} {value}")

        gauge("sim_time", latest["t"], "Simulated time of this sample.")
        gauge("sends_total", latest["sends"],
              "Messages transmitted so far.")
        gauge("recvs_total", latest["recvs"],
              "Messages received so far.")
        gauge("in_flight", latest["in_flight"],
              "Messages sent but not (yet) received.")
        gauge("faults_total", latest["faults"],
              "Injected fault decisions and wireless losses so far.")
        gauge("cs_entries_total", latest["cs_entries"],
              "Critical-section entries so far.")
        if "pending_events" in latest:
            gauge("scheduler_pending_events", latest["pending_events"],
                  "Events waiting in the scheduler queue.")
            gauge("scheduler_events_processed",
                  latest["events_processed"],
                  "Events the scheduler has executed.")
        if "pending_requests" in latest:
            gauge("pending_requests", latest["pending_requests"],
                  "Mutual-exclusion requests awaiting service.")
            gauge("oldest_pending_age", latest["oldest_pending_age"],
                  "Sim-time age of the oldest pending request.")
        if "violations" in latest:
            gauge("invariant_violations", latest["violations"],
                  "Invariant violations observed by all monitors.")
        if "mss_load" in latest:
            lines.append(f"# HELP {prefix}_mss_load Connected MHs per "
                         "support station.")
            lines.append(f"# TYPE {prefix}_mss_load gauge")
            for mss_id, load in sorted(latest["mss_load"].items()):
                label = escape_label_value(mss_id)
                lines.append(
                    f'{prefix}_mss_load{{mss="{label}"}} {load}')
        return "\n".join(lines) + "\n"
