"""Prometheus text-format conformance of the telemetry exports.

The HealthMonitor's ``to_prometheus`` page and the live ``/metrics``
endpoint (repro.obs.service) must both emit well-formed exposition
text: every family introduced by exactly one ``# HELP`` and one
``# TYPE`` line before its samples, label values escaped per the
format (backslash, double-quote, newline), and no family emitted
twice.  Scrapers reject pages that violate any of these.
"""

from __future__ import annotations

import random
import re

from repro.facade import Simulation
from repro.monitor.health import HealthMonitor, escape_label_value

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)
LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_exposition(text: str):
    """Validate exposition text; returns {family: [sample lines]}.

    Raises AssertionError on malformed lines, HELP/TYPE violations,
    or duplicate families -- the checks a scraper's parser performs.
    """
    families: dict = {}
    helped: set = set()
    typed: set = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in helped, f"duplicate HELP for {name}"
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            name, kind = parts[2], parts[3]
            assert kind in ("gauge", "counter", "histogram", "summary",
                            "untyped")
            assert name not in typed, f"duplicate TYPE for {name}"
            assert name in helped, f"TYPE before HELP for {name}"
            typed.add(name)
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        assert name in typed, f"sample before TYPE for {name}"
        labels = match.group("labels")
        if labels:
            body = labels[1:-1]
            consumed = ",".join(
                f'{k}="{v}"' for k, v in LABEL_RE.findall(body)
            )
            assert consumed == body, f"malformed labels: {labels!r}"
        float(match.group("value"))  # value must parse
        families.setdefault(name, []).append(line)
    return families


class TestEscapeLabelValue:
    def test_passthrough(self):
        assert escape_label_value("mss-0") == "mss-0"

    def test_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_escaped_value_roundtrips_in_label(self):
        hostile = 'mss"0\\x\n'
        line = f'x{{mss="{escape_label_value(hostile)}"}} 1'
        match = SAMPLE_RE.match(line)
        assert match
        ((key, value),) = LABEL_RE.findall(match.group("labels")[1:-1])
        assert key == "mss"


class TestHealthExport:
    def _monitor_with_sample(self, mss_load=None):
        monitor = HealthMonitor()
        monitor.sample(10.0)
        if mss_load is not None:
            monitor.samples[-1]["mss_load"] = mss_load
        return monitor

    def test_wellformed_page(self):
        monitor = self._monitor_with_sample({"mss-0": 3, "mss-1": 1})
        families = parse_exposition(monitor.to_prometheus())
        assert "repro_sends_total" in families
        assert len(families["repro_mss_load"]) == 2

    def test_no_duplicate_families(self):
        monitor = self._monitor_with_sample()
        text = monitor.to_prometheus()
        helps = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert len(helps) == len(set(helps))
        parse_exposition(text)  # would raise on duplicates

    def test_hostile_label_values_are_escaped(self):
        monitor = self._monitor_with_sample({'mss"0\\\n': 2})
        text = monitor.to_prometheus()
        parse_exposition(text)
        assert '\\"' in text and "\\n" in text

    def test_empty_series_exports_empty_page(self):
        assert HealthMonitor().to_prometheus() == ""


class TestServeMetricsPage:
    def test_live_metrics_page_parses(self):
        """The /metrics payload (health page + repro_obs_* families)
        is one well-formed exposition document."""
        from repro.mutex import CriticalResource, L2Mutex
        from repro.obs import TelemetryServer
        from repro.workload import MutexWorkload

        sim = Simulation(n_mss=2, n_mh=6, seed=3, monitors=True)
        resource = CriticalResource(sim.scheduler)
        mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
        MutexWorkload(sim.network, mutex, sim.mh_ids,
                      request_rate=0.05, rng=random.Random(4))
        sim.run(until=120.0)
        server = TelemetryServer(sim, port=0)
        try:
            families = parse_exposition(server.metrics_text())
        finally:
            server.stop()
        assert "repro_sends_total" in families
        assert "repro_obs_ledger_drains_total" in families
        assert "repro_obs_wall_seconds" in families
        assert "repro_obs_violations" in families
