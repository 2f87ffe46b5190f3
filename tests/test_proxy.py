"""Tests for the Section 5 proxy framework."""

from __future__ import annotations

import random

import pytest

from repro import Category, CriticalResource, NetworkConfig, Simulation
from repro.errors import ConfigurationError
from repro.mobility import UniformMobility
from repro.net import ConstantLatency, UniformLatency
from repro.proxy import (
    FixedProxyPolicy,
    LocalProxyPolicy,
    ProxiedMessenger,
    ProxiedMutex,
    ProxyManager,
)
from repro.workload import MutexWorkload

from conftest import make_sim


def fixed_setup(n_mss=4, n_mh=4):
    sim = make_sim(n_mss=n_mss, n_mh=n_mh, placement="round_robin")
    policy = FixedProxyPolicy()
    manager = ProxyManager(sim.network, policy, sim.mh_ids)
    return sim, policy, manager


def local_setup(n_mss=4, n_mh=4):
    sim = make_sim(n_mss=n_mss, n_mh=n_mh, placement="round_robin")
    policy = LocalProxyPolicy()
    manager = ProxyManager(sim.network, policy, sim.mh_ids)
    return sim, policy, manager


class TestFixedProxyPolicy:
    def test_proxy_defaults_to_initial_mss(self):
        sim, policy, manager = fixed_setup()
        assert policy.proxy_of("mh-2") == "mss-2"

    def test_proxy_unchanged_by_moves(self):
        sim, policy, manager = fixed_setup()
        sim.mh(2).move_to("mss-0")
        sim.drain()
        assert policy.proxy_of("mh-2") == "mss-2"

    def test_moves_generate_inform_traffic(self):
        sim, policy, manager = fixed_setup()
        sim.mh(1).move_to("mss-3")
        sim.drain()
        assert policy.inform_messages == 1
        assert policy.location_register["mh-1"] == "mss-3"
        assert sim.metrics.total(Category.FIXED, "proxy") == 1

    def test_move_back_to_proxy_cell_needs_no_inform(self):
        sim, policy, manager = fixed_setup()
        sim.mh(1).move_to("mss-3")
        sim.drain()
        sim.mh(1).move_to("mss-1")
        sim.drain()
        assert policy.inform_messages == 1
        assert policy.location_register["mh-1"] == "mss-1"

    def test_unknown_mh_has_no_proxy(self):
        sim, policy, manager = fixed_setup()
        with pytest.raises(ConfigurationError):
            policy.proxy_of("mh-99")


class TestLocalProxyPolicy:
    def test_proxy_is_current_mss(self):
        sim, policy, manager = local_setup()
        assert policy.proxy_of("mh-1") == "mss-1"
        sim.mh(1).move_to("mss-3")
        sim.drain()
        assert policy.proxy_of("mh-1") == "mss-3"

    def test_moves_generate_no_proxy_traffic(self):
        sim, policy, manager = local_setup()
        sim.mh(1).move_to("mss-3")
        sim.drain()
        assert sim.metrics.total(Category.FIXED, "proxy") == 0


class TestProxiedMessenger:
    def test_fixed_policy_delivers_without_search(self):
        sim, policy, manager = fixed_setup()
        messenger = ProxiedMessenger(manager)
        sim.mh(2).move_to("mss-0")  # dst moves away from its proxy
        sim.drain()
        before = sim.metrics.snapshot()
        messenger.send("mh-0", "mh-2", "hello")
        sim.drain()
        delta = sim.metrics.since(before)
        assert messenger.deliveries_of("hello") == ["mh-2"]
        assert delta.total(Category.SEARCH, "proxy") == 0

    def test_local_policy_delivers_with_search(self):
        sim, policy, manager = local_setup()
        messenger = ProxiedMessenger(manager)
        sim.mh(2).move_to("mss-0")
        sim.drain()
        before = sim.metrics.snapshot()
        messenger.send("mh-1", "mh-2", "hello")
        sim.drain()
        delta = sim.metrics.since(before)
        assert messenger.deliveries_of("hello") == ["mh-2"]
        assert delta.total(Category.SEARCH, "proxy") == 1

    def test_same_proxy_shortcut(self):
        sim, policy, manager = fixed_setup()
        messenger = ProxiedMessenger(manager)
        # mh-0 and mh-2 both proxied at mss-0 after explicit assignment.
        sim2 = make_sim(n_mss=4, n_mh=2, placement="single_cell")
        policy2 = FixedProxyPolicy()
        manager2 = ProxyManager(sim2.network, policy2, sim2.mh_ids)
        messenger2 = ProxiedMessenger(manager2)
        before = sim2.metrics.snapshot()
        messenger2.send("mh-0", "mh-1", "near")
        sim2.drain()
        delta = sim2.metrics.since(before)
        assert messenger2.deliveries_of("near") == ["mh-1"]
        # Uplink + downlink only: both wireless, no fixed traffic.
        assert delta.total(Category.FIXED, "proxy") == 0

    def test_sender_away_from_its_proxy_relays_uplink(self):
        sim, policy, manager = fixed_setup()
        messenger = ProxiedMessenger(manager)
        sim.mh(0).move_to("mss-3")
        sim.drain()
        messenger.send("mh-0", "mh-1", "from-afar")
        sim.drain()
        assert messenger.deliveries_of("from-afar") == ["mh-1"]

    def test_fixed_policy_recovers_from_stale_register(self):
        sim, policy, manager = fixed_setup()
        messenger = ProxiedMessenger(manager)
        # Send while the destination's move is still in flight, so the
        # proxy's register points at the old cell.
        sim.mh(2).move_to("mss-0")
        messenger.send("mh-0", "mh-2", "racing")
        sim.drain()
        assert messenger.deliveries_of("racing") == ["mh-2"]

    def test_unmanaged_destination_rejected(self):
        sim, policy, manager = fixed_setup()
        messenger = ProxiedMessenger(manager)
        with pytest.raises(ConfigurationError):
            messenger.send("mh-0", "mh-99", "x")


class TestProxiedMutex:
    def test_mutual_exclusion_with_fixed_proxies(self):
        sim, policy, manager = fixed_setup()
        resource = CriticalResource(sim.scheduler)
        mutex = ProxiedMutex(manager, resource)
        for mh_id in sim.mh_ids:
            mutex.request(mh_id)
        sim.drain()
        assert resource.access_count == 4
        resource.assert_no_overlap()

    def test_grant_reaches_moved_mh_without_search(self):
        sim, policy, manager = fixed_setup()
        resource = CriticalResource(sim.scheduler)
        mutex = ProxiedMutex(manager, resource)
        sim.mh(0).move_to("mss-2")
        sim.drain()
        before = sim.metrics.snapshot()
        mutex.request("mh-0")
        sim.drain()
        delta = sim.metrics.since(before)
        assert resource.access_count == 1
        assert delta.total(Category.SEARCH) == 0

    def test_release_from_new_cell_routed_to_granting_proxy(self):
        sim, policy, manager = fixed_setup()
        resource = CriticalResource(sim.scheduler)
        done = []
        mutex = ProxiedMutex(manager, resource, cs_duration=10.0,
                             on_complete=done.append)
        mutex.request("mh-0")
        # Run until the grant arrives and mh-0 holds the region.
        while resource.holder != "mh-0":
            assert sim.scheduler.step(), "grant never arrived"
        # Move to another cell while inside the region: the done uplink
        # will land at the new local MSS and be forwarded to the
        # granting proxy.
        sim.mh(0).move_to("mss-3")
        sim.drain()
        assert done == ["mh-0"]

    def test_done_is_owed_while_detached_and_sent_on_reattach(self):
        sim, policy, manager = fixed_setup()
        resource = CriticalResource(sim.scheduler)
        done = []
        mutex = ProxiedMutex(manager, resource, cs_duration=10.0,
                             on_complete=done.append)
        mutex.request("mh-0")
        while resource.holder != "mh-0":
            assert sim.scheduler.step(), "grant never arrived"
        # Leave the region while disconnected: nothing can be uplinked,
        # so the done waits for the reconnect (ROADMAP 1(d)).
        sim.mh(0).disconnect()
        sim.drain()
        assert resource.holder is None and done == []
        sim.mh(0).reconnect("mss-2")
        sim.drain()
        assert done == ["mh-0"]

    def test_exit_in_transit_neither_aborts_nor_wedges(self):
        """ROADMAP 1(d)'s grid: a CS exit that lands mid-move used to
        raise NotConnectedError in 19 of these 120 runs."""
        for latency in (ConstantLatency(1.0), UniformLatency(1.0, 8.0)):
            for seed in range(1, 61):
                sim = Simulation(n_mss=5, n_mh=10, seed=seed,
                                 config=NetworkConfig(fixed_latency=latency))
                manager = ProxyManager(sim.network, FixedProxyPolicy(),
                                       sim.mh_ids)
                mutex = ProxiedMutex(manager,
                                     CriticalResource(sim.scheduler),
                                     cs_duration=0.5)
                load = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                                     random.Random(seed))
                moves = UniformMobility(sim.network, sim.mh_ids, 0.03,
                                        rng=random.Random(seed + 1))
                sim.run(until=60.0)
                load.stop()
                moves.stop()
                sim.drain()
                assert load.issued and load.completed == load.issued, seed

    def test_needs_two_proxies(self):
        sim = make_sim(n_mss=3, n_mh=3, placement="single_cell")
        policy = FixedProxyPolicy()
        manager = ProxyManager(sim.network, policy, sim.mh_ids)
        with pytest.raises(ConfigurationError):
            ProxiedMutex(manager, CriticalResource(sim.scheduler))
