"""Live telemetry over HTTP: the observability pipeline's serve mode.

:class:`TelemetryServer` wraps a running :class:`~repro.Simulation`
(or a bare monitor hub) in a stdlib :class:`http.server` endpoint --
no third-party dependencies -- exposing the three routes dashboards
and scrapers expect (ROADMAP item 5, ``repro serve``):

* ``/metrics``   -- Prometheus text exposition: the latest
  :class:`~repro.monitor.health.HealthMonitor` sample plus the
  ``repro_obs_*`` families (monitor replay wall time, ledger drains,
  rows replayed).
* ``/health``    -- one JSON object: liveness of the process, current
  sim-time, scheduler progress.
* ``/invariants`` -- one JSON object: per-monitor violation counts,
  how many ledger drains have run, how many rows they replayed, and
  ``certified_until`` -- the sim-time through which batched monitors
  have actually replayed (rows after it are still in the ledger).

The server runs on a daemon thread; handlers only *read* simulator
state, and reads are snapshot-free (GIL-consistent, best effort) so a
scrape never blocks or perturbs the event loop.  Everything here is
observational -- the paper's protocols (Sections 3-4) run identically
with or without a scraper attached.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional

from repro.monitor.health import HealthMonitor, escape_label_value

__all__ = ["TelemetryServer"]

#: how often ``serve_forever`` checks for ``shutdown()``, and so how
#: long :meth:`TelemetryServer.stop` blocks (stdlib default: 0.5 s).
_POLL_INTERVAL_S = 0.02


class TelemetryServer:
    """Serve ``/metrics``, ``/health`` and ``/invariants`` for a sim.

    Args:
        sim: the :class:`~repro.Simulation` to observe.  Monitoring is
            optional -- without a hub, ``/metrics`` exports only the
            scheduler families and ``/invariants`` reports zero
            monitors.
        host: bind address (default loopback).
        port: TCP port; ``0`` picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(self, sim, host: str = "127.0.0.1", port: int = 0) -> None:
        self.sim = sim
        self._httpd = _make_httpd(self, host, port)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": _POLL_INTERVAL_S},
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._thread is not None:
            # shutdown() handshakes with serve_forever, so only call
            # it when the serving thread actually started.
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- payloads (also used directly by tests) -----------------------
    def metrics_text(self) -> str:
        """The ``/metrics`` page: health gauges + obs counters."""
        sim = self.sim
        hub = getattr(sim, "monitor_hub", None)
        parts = []
        if hub is not None:
            health = hub.monitor(HealthMonitor)
            if health is not None and health.samples:
                parts.append(health.to_prometheus())
        parts.append(self._obs_families())
        return "".join(parts)

    def _obs_families(self) -> str:
        sim = self.sim
        hub = getattr(sim, "monitor_hub", None)
        lines = [
            "# HELP repro_obs_sim_time Current simulated time.",
            "# TYPE repro_obs_sim_time gauge",
            f"repro_obs_sim_time {sim.scheduler.now}",
            "# HELP repro_obs_events_processed Events the scheduler "
            "has executed.",
            "# TYPE repro_obs_events_processed counter",
            f"repro_obs_events_processed "
            f"{sim.scheduler.events_processed}",
        ]
        if hub is not None:
            lines += [
                "# HELP repro_obs_ledger_drains_total Batched-ledger "
                "drain passes completed.",
                "# TYPE repro_obs_ledger_drains_total counter",
                f"repro_obs_ledger_drains_total {hub.drains}",
                "# HELP repro_obs_ledger_rows_total Ledger rows "
                "replayed through the monitors.",
                "# TYPE repro_obs_ledger_rows_total counter",
                f"repro_obs_ledger_rows_total {hub.rows_dispatched}",
                "# HELP repro_obs_certified_until Sim-time through "
                "which batched monitors have replayed.",
                "# TYPE repro_obs_certified_until gauge",
                f"repro_obs_certified_until {hub.certified_until}",
                "# HELP repro_obs_wall_seconds Wall time spent "
                "replaying drained ledger batches through the monitors.",
                "# TYPE repro_obs_wall_seconds counter",
                f'repro_obs_wall_seconds{{section="monitor"}} '
                f"{hub.monitor_wall_s:.6f}",
                "# HELP repro_obs_violations Invariant violations "
                "per monitor.",
                "# TYPE repro_obs_violations gauge",
            ]
            for monitor in hub.monitors:
                label = escape_label_value(monitor.name)
                lines.append(
                    f'repro_obs_violations{{monitor="{label}"}} '
                    f"{len(monitor.violations)}"
                )
        return "\n".join(lines) + "\n"

    def health_json(self) -> Dict[str, Any]:
        """The ``/health`` payload."""
        sim = self.sim
        return {
            "status": "ok",
            "sim_time": sim.scheduler.now,
            "events_processed": sim.scheduler.events_processed,
            "pending_events": sim.scheduler.pending_count,
            "monitoring": getattr(sim, "monitor_hub", None) is not None,
        }

    def invariants_json(self) -> Dict[str, Any]:
        """The ``/invariants`` payload."""
        sim = self.sim
        hub = getattr(sim, "monitor_hub", None)
        if hub is None:
            return {"monitors": {}, "ok": True, "drains": 0,
                    "rows_dispatched": 0, "certified_until": 0.0}
        monitors = {
            monitor.name: {
                "violations": len(monitor.violations),
                "latest": (
                    str(monitor.violations[-1])
                    if monitor.violations else None
                ),
            }
            for monitor in hub.monitors
        }
        return {
            "monitors": monitors,
            "ok": all(
                not monitor.violations for monitor in hub.monitors
            ),
            "drains": hub.drains,
            "rows_dispatched": hub.rows_dispatched,
            "certified_until": hub.certified_until,
        }


def _make_httpd(server: TelemetryServer, host: str, port: int):
    """An HTTP server whose handler is closed over one TelemetryServer.

    ``http.server`` (and the ``email``/``ssl`` machinery behind it) is
    imported here, on the first server built, so a monitored run that
    serves nothing never loads it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        # Routes only read simulator state; mutation never happens
        # from the serving thread.
        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                body = server.metrics_text().encode("utf-8")
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/health":
                body = (json.dumps(server.health_json(), sort_keys=True)
                        + "\n").encode("utf-8")
                ctype = "application/json"
            elif path == "/invariants":
                body = (json.dumps(server.invariants_json(),
                                   sort_keys=True)
                        + "\n").encode("utf-8")
                ctype = "application/json"
            else:
                self.send_error(404, "unknown route")
                return
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args) -> None:
            # Scrapes are high-frequency; stay quiet on stderr.
            pass

    return ThreadingHTTPServer((host, port), Handler)
