"""The search layer shared by every protocol: one probe charge, homes
that do not depend on the process hash seed."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro import Category, Simulation
from repro.mobility.models import DisconnectionModel, UniformMobility
from repro.net.messages import Message
from repro.net.regional_search import RegionalSearch

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: one home-agent and one regional run; prints their metrics as JSON.
DIRECTORY_RUNS = """
import json
from repro import Simulation
from repro.net.messages import Message
from repro.net.regional_search import RegionalSearch

report = {}
received = []
for name in ("home-agent", "regional"):
    search = RegionalSearch(region_size=2) if name == "regional" else name
    sim = Simulation(n_mss=6, n_mh=12, seed=5, search=search)
    for i, mh_id in enumerate(sim.mh_ids):
        mh = sim.network.mobile_host(mh_id)
        mh.register_handler("h.ping", received.append)
        mh.move_to(sim.mss_ids[(3 * i + 1) % 6])
    sim.drain()
    for mh_id in sim.mh_ids:
        sim.network.send_to_mh("mss-0", mh_id, Message(
            kind="h.ping", src="mss-0", dst=mh_id, scope="h"))
    report[name] = {
        "events": sim.drain(),
        "counts": sorted(
            (category.value, scope, n)
            for (category, scope), n in sim.metrics.snapshot().counts.items()
        ),
    }
print(json.dumps(report))
"""


def run_directories(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", DIRECTORY_RUNS], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_home_directories_do_not_depend_on_the_hash_seed():
    one, three = run_directories("1"), run_directories("3")
    assert one == three
    assert ["fixed", "search-maintenance"] in [
        row[:2] for row in one["home-agent"]["counts"]
    ]


def traced_pings(search):
    sim = Simulation(n_mss=6, n_mh=12, seed=3, search=search, trace=True)
    mobility = UniformMobility(sim.network, sim.mh_ids, 0.08,
                               random.Random(4))
    churn = DisconnectionModel(sim.network, sim.mh_ids, 0.02, downtime=5,
                               rng=random.Random(5))
    pick = random.Random(6)
    received = []
    for mh_id in sim.mh_ids:
        sim.network.mobile_host(mh_id).register_handler(
            "p.ping", received.append)
    for i in range(60):
        src, dst = pick.choice(sim.mss_ids), pick.choice(sim.mh_ids)
        sim.scheduler.schedule(
            float(i), sim.network.send_to_mh, src, dst,
            Message(kind="p.ping", src=src, dst=dst, scope="p"),
        )
    sim.run(until=80.0)
    mobility.stop()
    churn.stop()
    sim.drain()
    assert received
    return sim


@pytest.mark.parametrize("search", [
    "broadcast", "home-agent", "caching", RegionalSearch(region_size=2),
], ids=["broadcast", "home-agent", "caching", "regional"])
def test_every_probe_is_traced(search):
    """Each probe charge is one ``search.probes`` row; the one forward a
    located MH costs is the rest of ``SEARCH_PROBE``."""
    sim = traced_pings(search)
    events = sim.tracer.events
    rows = sum(e.detail["count"] for e in events
               if e.etype == "search.probes")
    forwards = sum(1 for e in events if e.etype == "search.result"
                   and not e.detail["disconnected"])
    assert rows > 0 and forwards > 0
    assert rows + forwards == sim.metrics.total(Category.SEARCH_PROBE)
