"""Per-channel FIFO: the clamp binds only where an arrival can overtake.

Section 2 gives every MSS pair a sequenced fixed channel and every
(MSS, MH) direction a FIFO wireless channel.  Under a variable latency
a later send can draw a shorter delay, so the network clamps it to the
channel's last arrival.  Under a constant latency arrivals never
decrease and the sends keep no per-channel state -- except in the
window after a switch from a variable to a constant latency, where a
message queued under the old model can still lie ahead.

Also pinned here: what a lost downlink is billed, and how downlinks are
numbered across residences.

The base seed honours ``REPRO_CHAOS_SEED`` like the other chaos tests.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import Simulation
from repro.errors import SimulationError
from repro.metrics import Category
from repro.mobility import UniformMobility
from repro.mutex import CriticalResource, L2Mutex
from repro.net.config import NetworkConfig
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.messages import Message
from repro.net.network import Network
from repro.sim import Scheduler
from repro.workload import MutexWorkload

from conftest import make_sim

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
KIND = "fifo.t"


def jittered_sim(low: float, high: float, seed: int = SEED) -> Simulation:
    return Simulation(
        n_mss=3, n_mh=3, seed=seed, placement="round_robin",
        config=NetworkConfig(fixed_latency=UniformLatency(low, high),
                             wireless_latency=UniformLatency(low, high)),
    )


# ----------------------------------------------------------------------
# Each send path: one message from a fixed sender, and what it reached
# ----------------------------------------------------------------------

def _recorder(sim, host, got):
    host.register_handler(
        KIND, lambda m: got.append((host.host_id, m.payload, sim.now)))


def send_fixed(sim, got):
    _recorder(sim, sim.mss(1), got)
    return lambda i: sim.network.send_fixed(
        Message(KIND, "mss-0", "mss-1", i, "t"))


def fan_out_fixed(sim, got):
    _recorder(sim, sim.mss(1), got)
    _recorder(sim, sim.mss(2), got)
    return lambda i: sim.network.fan_out_fixed(
        "mss-0", ["mss-1", "mss-2"], KIND, i, "t")


def send_wireless_up(sim, got):
    _recorder(sim, sim.mss(0), got)
    return lambda i: sim.network.send_wireless_up(
        "mh-0", Message(KIND, "mh-0", None, i, "t"))


def send_wireless_down(sim, got):
    _recorder(sim, sim.mh(0), got)
    return lambda i: sim.network.send_wireless_down(
        "mss-0", "mh-0", Message(KIND, "mss-0", "mh-0", i, "t"))


SENDERS = {f.__name__: f for f in (
    send_fixed, fan_out_fixed, send_wireless_up, send_wireless_down,
)}


def by_receiver(got):
    receivers = {}
    for host_id, payload, at in got:
        receivers.setdefault(host_id, []).append((payload, at))
    return receivers


@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("sender", ["send_wireless_up",
                                    "send_wireless_down"])
def test_wireless_channels_are_fifo_under_random_latency(sender, offset):
    seed = SEED + offset
    sim = jittered_sim(0.1, 2.0, seed)
    got = []
    send = SENDERS[sender](sim, got)
    rng = random.Random(seed)
    for i in range(40):
        send(i)
        if rng.random() < 0.3:
            sim.run(until=sim.now + rng.uniform(0.0, 0.6))
    sim.drain()
    assert [payload for _, payload, _ in got] == list(range(40))


@pytest.mark.parametrize("sender", list(SENDERS))
def test_a_switch_to_constant_latency_never_overtakes_the_queue(sender):
    sim = jittered_sim(4.0, 8.0)
    network = sim.network
    got = []
    send = SENDERS[sender](sim, got)
    send(0)  # lands somewhere in [4, 8]
    config = network.config
    config.fixed_latency = ConstantLatency(0.5)
    config.wireless_latency = ConstantLatency(0.5)
    network._refresh_fast_paths()
    send(1)  # now + 0.5 would overtake: clamped to the queued arrival
    sim.drain()
    receivers = by_receiver(got)
    assert receivers
    for arrivals in receivers.values():
        (first, queued), (second, clamped) = arrivals
        assert (first, second) == (0, 1)
        assert queued > 0.5 and clamped == queued
    # Past the window a constant send neither clamps nor records.
    recorded = dict(network._last_arrival)
    sent_at = sim.now
    del got[:]
    send(2)
    sim.drain()
    assert recorded == network._last_arrival
    assert {at for _, _, at in got} == {sent_at + 0.5}


@pytest.mark.parametrize("observed", [{}, {"trace": True},
                                      {"monitors": True}])
def test_constant_latency_keeps_no_arrival_map(observed):
    sim = Simulation(n_mss=4, n_mh=8, seed=SEED, **observed)
    mutex = L2Mutex(sim.network, CriticalResource(sim.scheduler),
                    cs_duration=0.5)
    load = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                         random.Random(SEED))
    mobility = UniformMobility(sim.network, sim.mh_ids, move_rate=0.03,
                               rng=random.Random(SEED + 1))
    sim.run(until=200.0)
    load.stop()
    mobility.stop()
    sim.drain()
    assert mutex.completed
    assert sum(sim.mh(i).moves_completed for i in range(8)) > 0
    assert sim.metrics.total(Category.FIXED) > 0
    assert sim.metrics.total(Category.WIRELESS) > 0
    assert sim.network._last_arrival == {}


def test_a_constant_latency_is_not_replaced_mid_run():
    sim = make_sim()
    network = sim.network
    network.send_fixed(Message(KIND, "mss-0", "mss-1", 0, "t"))
    network._refresh_fast_paths()  # the same constants: nothing to check
    network.config.wireless_latency = ConstantLatency(0.5)
    network._refresh_fast_paths()  # an equal constant is the same model
    network.config.fixed_latency = UniformLatency(0.1, 2.0)
    with pytest.raises(SimulationError, match="mid-run"):
        network._refresh_fast_paths()
    # Before anything is queued, any model may replace a constant.
    idle = Network(Scheduler())
    idle.config.fixed_latency = UniformLatency(0.1, 2.0)
    idle._refresh_fast_paths()
    assert idle._fixed_const is None


# ----------------------------------------------------------------------
# The bill of a lost downlink, and downlink numbering
# ----------------------------------------------------------------------

def test_a_lost_downlink_still_bills_the_receive_energy():
    # Charged at transmission: the MH left before the frame landed, yet
    # the downlink costs one wireless message and one receive unit.
    sim = make_sim()
    lost = []
    sim.network.send_wireless_down(
        "mss-0", "mh-0", Message("test.one", "mss-0", "mh-0", None, "test"),
        on_lost=lost.append)
    sim.mh(0).move_to("mss-1")
    sim.drain()
    assert len(lost) == 1 and sim.network.lost_wireless_messages == 1
    snapshot = sim.metrics.snapshot()
    assert snapshot.total(Category.WIRELESS, "test") == 1
    assert snapshot.energy_rx == {"mh-0": 1}


def test_downlinks_are_numbered_per_channel_across_residences():
    sim = Simulation(n_mss=4, n_mh=8, seed=1, placement="round_robin",
                     trace=True)
    mh = sim.mh(0)
    seqs = []
    mh.register_handler("test.one", lambda m: seqs.append(m.wireless_seq))

    def downlink():
        sim.network.send_wireless_down(
            "mss-0", "mh-0", Message("test.one", "mss-0", "mh-0", None,
                                     "test"))
        sim.drain()

    downlink()
    downlink()
    mh.move_to("mss-1")
    sim.drain()
    mh.move_to("mss-0")
    sim.drain()
    # The MH's count restarts with each residence; the channel's does not.
    assert mh.last_received_seq == 0
    downlink()
    assert seqs == [1, 2, 3]
    assert mh.last_received_seq == 3
    leaves = [e.detail["r"] for e in sim.tracer.events
              if e.etype == "mh.leave"]
    assert leaves == [2, 0]
