"""Tests for the live telemetry service (repro.obs.service).

Covers the three routes in-process (payload shape, 404 handling,
port-0 binding) and end-to-end through ``repro serve`` as a real
subprocess -- the same smoke the CI ``ledger-telemetry`` job runs:
start the server, scrape ``/metrics`` and ``/health``, assert the
scrape parses.  Part of the service mode of the observability pipeline
(ROADMAP item 5).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.facade import Simulation
from repro.mutex import CriticalResource, L2Mutex
from repro.obs import TelemetryServer
from repro.workload import MutexWorkload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_running_sim():
    sim = Simulation(n_mss=3, n_mh=9, seed=3, monitors=True)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    MutexWorkload(sim.network, mutex, sim.mh_ids, request_rate=0.05,
                  rng=random.Random(4))
    sim.run(until=200.0)
    return sim


def fetch(url: str) -> bytes:
    return urllib.request.urlopen(url, timeout=10).read()


def wall_samples(metrics_text: str):
    """``(section, seconds)`` per ``repro_obs_wall_seconds`` sample."""
    return [
        (section, float(value)) for section, value in re.findall(
            r'^repro_obs_wall_seconds\{section="([^"]*)"\} (\S+)$',
            metrics_text, re.MULTILINE,
        )
    ]


class TestTelemetryServer:
    @pytest.fixture()
    def server(self):
        server = TelemetryServer(make_running_sim(), port=0)
        server.start()
        yield server
        server.stop()

    def test_port_zero_binds_a_real_port(self, server):
        assert server.port > 0
        assert str(server.port) in server.url

    def test_metrics_route(self, server):
        text = fetch(server.url + "/metrics").decode()
        assert "# HELP repro_sends_total" in text
        assert "repro_obs_ledger_rows_total" in text
        assert "repro_obs_certified_until" in text

    def test_health_route(self, server):
        payload = json.loads(fetch(server.url + "/health"))
        assert payload["status"] == "ok"
        assert payload["monitoring"] is True
        assert payload["sim_time"] == pytest.approx(200.0)

    def test_invariants_route(self, server):
        payload = json.loads(fetch(server.url + "/invariants"))
        assert payload["ok"] is True
        assert payload["drains"] >= 1
        assert payload["rows_dispatched"] > 0
        assert payload["certified_until"] == pytest.approx(200.0)
        assert "mutex-exclusivity" in payload["monitors"]
        for record in payload["monitors"].values():
            assert record["violations"] == 0

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_certification_advances_with_drains(self, server):
        sim = server.sim
        before = json.loads(fetch(server.url + "/invariants"))
        sim.run(until=260.0)
        sim.monitor_hub.drain_batches()
        after = json.loads(fetch(server.url + "/invariants"))
        assert after["certified_until"] > before["certified_until"]
        assert after["drains"] > before["drains"]

    def test_monitorless_sim_still_serves(self):
        sim = Simulation(n_mss=2, n_mh=2, seed=1)
        with TelemetryServer(sim, port=0) as server:
            payload = json.loads(fetch(server.url + "/health"))
            assert payload["monitoring"] is False
            inv = json.loads(fetch(server.url + "/invariants"))
            assert inv == {"monitors": {}, "ok": True, "drains": 0,
                           "rows_dispatched": 0, "certified_until": 0.0}
            text = fetch(server.url + "/metrics").decode()
            assert "repro_obs_sim_time" in text
            assert "repro_obs_wall_seconds" not in text

    def test_stop_returns_promptly(self):
        """``stop()`` waits out one ``serve_forever`` poll; at the
        stdlib's default interval that was half a second per server."""
        server = TelemetryServer(Simulation(n_mss=2, n_mh=2, seed=1),
                                 port=0).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.25

    def test_wall_seconds_is_the_monitor_replay_alone(self):
        """One sample, ``section="monitor"``: the replay time the drain
        measures anyway.  Nothing else is timed, so nothing is wrapped."""
        started = time.perf_counter()
        sim = make_running_sim()
        server = TelemetryServer(sim, port=0)
        try:
            first = wall_samples(server.metrics_text())
            drains = sim.monitor_hub.drains
            sim.run(until=260.0)
            second = wall_samples(server.metrics_text())
        finally:
            server.stop()
        elapsed = time.perf_counter() - started
        assert sim.monitor_hub.drains > drains >= 1
        assert [section for section, _ in first] == ["monitor"]
        assert [section for section, _ in second] == ["monitor"]
        assert 0.0 < first[0][1] <= second[0][1] <= elapsed


class TestServeSubcommand:
    def test_serve_endpoint_smoke(self):
        """End-to-end: `repro serve` as a subprocess, scraped over
        real HTTP while it lingers after a bounded run."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--duration", "200", "--n-mh", "12",
             "--linger", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO_ROOT,
        )
        try:
            url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                match = re.search(r"serving on (http://\S+)", line or "")
                if match:
                    url = match.group(1)
                    break
            assert url, "serve never printed its URL"
            # The run itself takes well under the linger window; poll
            # until the bounded run finishes (pending_events drains).
            payload = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                payload = json.loads(fetch(url + "/health"))
                if payload["sim_time"] >= 200.0:
                    break
                time.sleep(0.2)
            assert payload is not None
            assert payload["status"] == "ok"
            metrics = fetch(url + "/metrics").decode()
            from test_monitor_prometheus import parse_exposition

            families = parse_exposition(metrics)
            assert "repro_obs_events_processed" in families
        finally:
            proc.terminate()
            proc.wait(timeout=20)
