"""``Network.fan_out_fixed`` is a per-copy ``send_fixed`` loop in
everything but speed.

Every same-payload fan-out in the library -- Lamport's request and
release broadcasts at L2 and at the proxies, the find-disconnect query,
the exactly-once store and prune, the ordered group's fan-out, the
location view's group fan-out and incremental update -- goes through
the one primitive.  :func:`reference_fan_out` re-implements it as the
loop it replaced and is monkeypatched in; each workload then runs under
the real primitive and under the reference, in five regimes, and must
fire the same events, record the same costs, deliver the same
fixed-network arrivals at the same times, and end with the same
protocol outcome and report bytes.  Three seeded mutants of the real
fan-out must each be caught by the same comparison.

The base seed honours ``REPRO_CHAOS_SEED`` like the other chaos tests.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import textwrap
from functools import lru_cache

import pytest

from repro import Simulation
from repro.errors import SimulationError, UnknownHostError
from repro.faults import FaultPlan, LinkFault
from repro.groups.location_view import LocationViewGroup
from repro.groups.ordered import OrderedGroup
from repro.hosts.base import Host
from repro.metrics import Category
from repro.mobility import DisconnectionModel, UniformMobility
from repro.multicast.exactly_once import ExactlyOnceMulticast
from repro.mutex import CriticalResource, L2Mutex
from repro.net import network as network_module
from repro.net.config import NetworkConfig
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.messages import Message
from repro.net.network import Network
from repro.proxy import FixedProxyPolicy, ProxiedMutex, ProxyManager
from repro.trace import to_jsonl
from repro.workload import GroupMessagingWorkload, MutexWorkload

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
HORIZON = 60.0


def reference_fan_out(self, src_id, dst_ids, kind, payload, scope):
    """The loop every fan-out site ran before the primitive existed."""
    for dst_id in dst_ids:
        self.send_fixed(Message(kind, src_id, dst_id, payload, scope))


def mutant(old: str, new: str):
    """The real ``fan_out_fixed`` with one line edited."""
    source = textwrap.dedent(inspect.getsource(Network.fan_out_fixed))
    assert source.count(old) == 1, f"mutation site {old!r} moved"
    namespace = dict(vars(network_module))
    exec(source.replace(old, new), namespace)
    return namespace["fan_out_fixed"]


MUTANTS = {
    # charge one copy too few
    "count": ("self.metrics.record_fixed(scope, sent)",
              "self.metrics.record_fixed(scope, sent - 1)"),
    # post at now + latency even behind a later arrival on the channel
    "fifo": ("if at is None or at < arrival:", "if True:"),
    # drop the per-copy send.fixed row from the one-frame path
    "untraced": ("traced = self._trace_on", "traced = False"),
}


# ----------------------------------------------------------------------
# Regimes: how the network is observed or perturbed
# ----------------------------------------------------------------------

def _jitter_then_constant(sim):
    # Half the run on a jittered latency (the loop path), then a
    # constant one: arrivals queued behind the jitter make the fast
    # path's per-channel FIFO clamp bind.
    sim.network.config.fixed_latency = ConstantLatency(0.5)
    sim.network._refresh_fast_paths()


REGIMES = {
    "unobserved": (dict, None),
    "trace": (lambda: {"trace": True}, None),
    "monitors": (lambda: {"monitors": True}, None),
    "faults+reliable": (lambda: {"fault_plan": FaultPlan(
        link_faults=(LinkFault(drop=0.1, duplicate=0.05),),
        reliable=True, seed=SEED)}, None),
    "latency": (lambda: {"config": NetworkConfig(
        fixed_latency=UniformLatency(1.0, 8.0))}, _jitter_then_constant),
}


# ----------------------------------------------------------------------
# Workloads: each returns (load generators to stop, outcome to compare)
# ----------------------------------------------------------------------

def _mobility(sim, seed, rate=0.03):
    return UniformMobility(sim.network, sim.mh_ids, move_rate=rate,
                           rng=random.Random(seed + 1))


def l2(sim, seed):
    mutex = L2Mutex(sim.network, CriticalResource(sim.scheduler),
                    cs_duration=0.5)
    load = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                         random.Random(seed))
    return [load, _mobility(sim, seed)], lambda: (
        mutex.grant_log, mutex.completed, mutex.aborted)


def proxied(sim, seed):
    manager = ProxyManager(sim.network, FixedProxyPolicy(), sim.mh_ids)
    mutex = ProxiedMutex(manager, CriticalResource(sim.scheduler),
                         cs_duration=0.5)
    load = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                         random.Random(seed))
    return [load, _mobility(sim, seed)], lambda: (
        mutex.grant_log, mutex.completed, mutex.aborted)


def find_disconnect(sim, seed):
    model = DisconnectionModel(sim.network, sim.mh_ids,
                               disconnect_rate=0.05, downtime=3.0,
                               rng=random.Random(seed), supply_prev=False)
    return [model, _mobility(sim, seed)], lambda: model.disconnections


def _group_load(sim, seed, group):
    load = GroupMessagingWorkload(sim.network, group, 0.5,
                                  random.Random(seed))
    return [load, _mobility(sim, seed, rate=0.05)]


def exactly_once(sim, seed):
    group = ExactlyOnceMulticast(sim.network, sim.mh_ids[:6], gc=True)
    return _group_load(sim, seed, group), lambda: group.delivered


def ordered(sim, seed):
    group = OrderedGroup(sim.network, sim.mh_ids[:6])
    return _group_load(sim, seed, group), lambda: group.delivered


def location_view(sim, seed):
    group = LocationViewGroup(sim.network, sim.mh_ids[:6])
    return _group_load(sim, seed, group), lambda: vars(group.stats)


WORKLOADS = {f.__name__: f for f in (
    l2, proxied, find_disconnect, exactly_once, ordered, location_view,
)}


def observe(workload: str, regime: str, fan_out) -> dict:
    """Run ``workload`` under ``regime`` with ``fan_out`` installed and
    return everything two equivalent runs must agree on."""
    sim_kwargs, midway = REGIMES[regime]
    arrivals = []
    real_handle = Host.handle_message

    def recording(host, message):
        if message.src.startswith("mss-") and host.host_id.startswith(
                "mss-"):
            arrivals.append((message.src, host.host_id, message.kind,
                             host.network.scheduler.now))
        real_handle(host, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "fan_out_fixed", fan_out)
        patch.setattr(Host, "handle_message", recording)
        sim = Simulation(n_mss=5, n_mh=10, seed=SEED, **sim_kwargs())
        load, outcome = WORKLOADS[workload](sim, SEED)
        sim.run(until=HORIZON / 2)
        if midway is not None:
            midway(sim)
        sim.run(until=HORIZON)
        for source in load:
            source.stop()
        sim.drain()
        report = sim.monitor_report()
        if sim.tracer is not None:
            report += to_jsonl(sim.tracer.events)
        snapshot = sim.metrics.snapshot()
        return {
            "events": sim.scheduler.events_processed,
            "metrics": (sorted((c.value, s, n) for (c, s), n
                               in snapshot.counts.items()),
                        sorted(snapshot.energy_tx.items()),
                        sorted(snapshot.energy_rx.items()),
                        sorted(snapshot.faults.items())),
            "fixed": snapshot.total(Category.FIXED),
            "arrivals": arrivals,
            "outcome": repr(outcome()),
            "report": hashlib.sha256(report.encode()).hexdigest(),
        }


@lru_cache(maxsize=None)
def reference(workload: str, regime: str) -> dict:
    return observe(workload, regime, reference_fan_out)


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_fan_out_matches_the_per_copy_loop(workload, regime):
    expected = reference(workload, regime)
    assert expected["fixed"] > 0 and expected["arrivals"]
    assert observe(workload, regime, Network.fan_out_fixed) == expected


@pytest.mark.parametrize("name, regime", [
    ("count", "unobserved"), ("fifo", "latency"), ("untraced", "trace"),
])
def test_each_mutant_is_caught(name, regime):
    fan_out = mutant(*MUTANTS[name])

    def caught(workload):
        try:
            return observe(workload, regime, fan_out) != reference(
                workload, regime)
        except SimulationError:  # e.g. reordered copies break exclusion
            return True

    assert any(caught(workload) for workload in WORKLOADS)


def test_self_addressed_and_unknown_destinations_act_as_send_fixed():
    sim = Simulation(n_mss=3, n_mh=0, seed=SEED)
    network = sim.network
    network.fan_out_fixed("mss-0", ["mss-1", "mss-0", "mss-2"], "k",
                          None, "s")
    # the self-addressed copy is delivered locally and not charged
    assert sim.metrics.snapshot().total(Category.FIXED) == 2
    assert sim.scheduler.pending_count == 3
    with pytest.raises(UnknownHostError, match="mss-9"):
        network.fan_out_fixed("mss-0", ["mss-1", "mss-9", "mss-2"], "k",
                              None, "s")
    # as in the loop: the copy before the unknown one is sent and charged
    assert sim.metrics.snapshot().total(Category.FIXED) == 3
    assert sim.scheduler.pending_count == 4
