"""Tests for workload generators driving the algorithms over time."""

from __future__ import annotations

import random

import pytest

from repro import CriticalResource, L2Mutex, R2Mutex, Simulation
from repro.errors import ConfigurationError
from repro.groups import PureSearchGroup
from repro.mobility import DisconnectionModel, UniformMobility
from repro.mutex import R2Variant
from repro.workload import GroupMessagingWorkload, MutexWorkload

from conftest import make_sim


def test_mutex_workload_drives_l2_to_completion():
    sim = make_sim(n_mss=4, n_mh=8)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.5)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=0.05, rng=random.Random(2))
    sim.run(until=200.0)
    workload.stop()
    sim.drain()
    assert workload.issued > 0
    assert workload.completed == workload.issued
    assert resource.access_count == workload.issued
    resource.assert_no_overlap()


def test_mutex_workload_under_mobility_is_safe():
    sim = make_sim(n_mss=5, n_mh=10)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=0.05, rng=random.Random(8))
    mobility = UniformMobility(sim.network, sim.mh_ids, move_rate=0.05,
                               rng=random.Random(9))
    sim.run(until=300.0)
    workload.stop()
    mobility.stop()
    sim.drain()
    assert workload.completed == workload.issued
    resource.assert_no_overlap()


def test_mutex_workload_with_r2_ring():
    sim = make_sim(n_mss=4, n_mh=8)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, cs_duration=0.2)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=0.03, rng=random.Random(5))
    mutex.start()
    sim.run(until=300.0)
    workload.stop()
    # Let the ring keep circulating until every issued request is
    # served, then stop it at the next head arrival.
    deadline = 2000.0
    while workload.completed < workload.issued and sim.now < deadline:
        sim.run(until=sim.now + 50.0)
    mutex.max_traversals = 0
    sim.run(until=sim.now + 200.0)
    assert workload.issued > 0
    assert workload.completed == workload.issued
    resource.assert_no_overlap()


@pytest.mark.parametrize("algorithm", ["L2", "R2'"])
def test_an_aborted_request_frees_its_host(algorithm):
    """A grant whose requester is unreachable ends the request (L2
    aborts it, fault-free R2 skips it); the host may request again
    instead of having every later arrival dropped."""
    sim = Simulation(n_mss=4, n_mh=12, seed=1)
    resource = CriticalResource(sim.scheduler)
    if algorithm == "L2":
        mutex = L2Mutex(sim.network, resource)
    else:
        mutex = R2Mutex(sim.network, resource, variant=R2Variant.COUNTER)
        mutex.start()
    first_abort = {}

    def note_abort(mh_id):
        first_abort.setdefault(mh_id, sim.now)

    mutex.on_aborted = note_abort  # chained by the workload
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.08,
                             rng=random.Random(3))
    drivers = [
        workload,
        UniformMobility(sim.network, sim.mh_ids, 0.03, random.Random(4)),
        DisconnectionModel(sim.network, sim.mh_ids, 0.02, downtime=3.0,
                           rng=random.Random(5)),
    ]
    sim.run(until=500.0)
    for driver in drivers:
        driver.stop()
    ended_unserved = (mutex.skipped_disconnected if algorithm == "R2'"
                      else mutex.aborted)
    deadline = sim.now + 2000.0
    while (len(mutex.completed) + len(ended_unserved) < workload.issued
           and sim.now < deadline):
        sim.run(until=sim.now + 50.0)
    if algorithm == "R2'":
        mutex.max_traversals = 0
        sim.run(until=sim.now + 200.0)
    else:
        sim.drain()
    # Every host whose request ended unserved is served again later.
    assert first_abort
    served_again = {
        mh_id for time, mh_id in mutex.completed
        if mh_id in first_abort and time > first_abort[mh_id]
    }
    assert served_again == set(first_abort)
    assert workload.aborted == len(ended_unserved)
    assert workload.completed + workload.aborted == workload.issued
    resource.assert_no_overlap()


def test_mutex_workload_never_double_requests():
    sim = make_sim(n_mss=4, n_mh=2)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=50.0)
    workload = MutexWorkload(sim.network, mutex, ["mh-0"],
                             request_rate=5.0, rng=random.Random(1))
    sim.run(until=20.0)
    workload.stop()
    # Long CS: most arrivals drop while one request is outstanding.
    assert workload.issued == 1
    assert workload.dropped > 0


def test_mutex_workload_rejects_bad_rate():
    sim = make_sim()
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource)
    with pytest.raises(ConfigurationError):
        MutexWorkload(sim.network, mutex, sim.mh_ids, 0.0,
                      random.Random(1))


def test_group_workload_sends_messages():
    sim = make_sim(n_mss=4, n_mh=6)
    group = PureSearchGroup(sim.network, sim.mh_ids)
    workload = GroupMessagingWorkload(sim.network, group,
                                      message_rate=0.2,
                                      rng=random.Random(3))
    sim.run(until=100.0)
    workload.stop()
    sim.drain()
    assert workload.sent > 0
    assert group.stats.messages == workload.sent
    # Every message reached all other members.
    assert group.stats.deliveries == workload.sent * (len(group.members) - 1)


def test_group_workload_controls_mob_msg_ratio():
    sim = make_sim(n_mss=6, n_mh=4)
    group = PureSearchGroup(sim.network, sim.mh_ids)
    workload = GroupMessagingWorkload(sim.network, group,
                                      message_rate=0.1,
                                      rng=random.Random(4))
    mobility = UniformMobility(sim.network, sim.mh_ids, move_rate=0.05,
                               rng=random.Random(5))
    sim.run(until=500.0)
    workload.stop()
    mobility.stop()
    sim.drain()
    ratio = group.stats.mobility_to_message_ratio
    # 4 members moving at 0.05 = 0.2 moves/unit vs 0.1 msgs/unit: the
    # measured ratio should be near 2.
    assert 1.0 < ratio < 4.0
