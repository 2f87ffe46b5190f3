"""The telemetry payloads of one fixed monitored run, byte for byte.

``tests/golden/telemetry_outputs.json`` holds the ``/metrics`` text and
the ``/invariants`` JSON of a monitored L2 soak (M=3, N=9, seed 3,
requests at 0.05), scraped twice: after ``Simulation.run(until=80)``,
which ends with a drain, and then driving the scheduler alone to t=120,
so rows still wait in the ledger and ``certified_until`` lags; and
after ``Simulation.run(until=200)``.  The drain and row counters,
``certified_until``, the health gauges and the per-monitor verdicts
must read the same whoever counts them.  The one sample left out is
``repro_obs_wall_seconds``, which is wall time.
"""

from __future__ import annotations

import json
import os
import random
import re

from repro.facade import Simulation
from repro.mutex import CriticalResource, L2Mutex
from repro.obs import TelemetryServer
from repro.workload import MutexWorkload

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "telemetry_outputs.json")

#: the wall-time sample, the one line that differs run to run.
WALL = re.compile(r'^repro_obs_wall_seconds\{section="monitor"\} \S+\n',
                  re.MULTILINE)


def scrape(server):
    """What ``/metrics`` and ``/invariants`` serve right now."""
    metrics = server.metrics_text()
    assert len(WALL.findall(metrics)) == 1
    return {
        "metrics": WALL.sub("", metrics),
        "invariants": json.dumps(server.invariants_json(), sort_keys=True),
    }


def recorded_scrapes():
    sim = Simulation(n_mss=3, n_mh=9, seed=3, monitors=True)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    MutexWorkload(sim.network, mutex, sim.mh_ids, request_rate=0.05,
                  rng=random.Random(4))
    server = TelemetryServer(sim, port=0)
    try:
        sim.run(until=80.0)
        sim.scheduler.run(until=120.0)
        mid_run = scrape(server)
        sim.run(until=200.0)
        return {"mid_run": mid_run, "after_run": scrape(server)}
    finally:
        server.stop()


def test_telemetry_payloads_match_the_recording():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert recorded_scrapes() == expected


def test_the_mid_run_scrape_lags_the_clock():
    """The recording covers both counter states: rows pending before a
    drain, and none after."""
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    mid = json.loads(expected["mid_run"]["invariants"])
    end = json.loads(expected["after_run"]["invariants"])
    assert mid["certified_until"] == 80.0
    assert end["certified_until"] == 200.0
    assert 0 < mid["rows_dispatched"] < end["rows_dispatched"]
