"""Tests for the Section 5 proxy framework."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import Category, CriticalResource, NetworkConfig, Simulation
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, MhCrash, MssCrash
from repro.mobility import DisconnectionModel, UniformMobility
from repro.monitor import Monitor, default_monitors
from repro.mutex import L2Mutex
from repro.net import ConstantLatency, UniformLatency
from repro.proxy import (
    AdaptiveProxyPolicy,
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

    def send_into_a_stale_register(self, policy):
        # The letter reaches mh-1's home proxy (mss-1) at t=10.5, after
        # mh-1 left for mss-4 at t=9; the inform from mss-4 needs 10
        # time units, so for a while every register read misleads.
        sim = make_sim(n_mss=6, n_mh=4, fixed_latency=10.0,
                       search_retry_delay=1.0)
        manager = ProxyManager(sim.network, policy, sim.mh_ids)
        messenger = ProxiedMessenger(manager)
        messenger.send("mh-0", "mh-1", "stale")
        sim.scheduler.schedule(9.0, sim.mh(1).move_to, "mss-4")
        sim.drain()
        return sim, manager, messenger

    def test_fixed_policy_rereads_a_stale_register_and_never_searches(self):
        sim, manager, messenger = self.send_into_a_stale_register(
            FixedProxyPolicy()
        )
        assert messenger.delivered == [(32.0, "mh-1", "stale")]
        assert manager.stale_deliveries == 11
        assert sim.metrics.total(Category.SEARCH, "proxy") == 0

    def test_adaptive_policy_searches_after_four_misleading_reads(self):
        sim, manager, messenger = self.send_into_a_stale_register(
            AdaptiveProxyPolicy(demote_after_moves=5, promote_after_uses=5)
        )
        assert messenger.delivered == [(16.0, "mh-1", "stale")]
        assert manager.stale_deliveries == 5
        assert sim.metrics.total(Category.SEARCH, "proxy") == 1

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


POLICIES = pytest.mark.parametrize(
    "policy", [FixedProxyPolicy, LocalProxyPolicy],
    ids=["fixed", "local"])


def _constant_sim(**kwargs):
    config = NetworkConfig(fixed_latency=ConstantLatency(1.0),
                           wireless_latency=ConstantLatency(0.5))
    return Simulation(n_mss=4, n_mh=4, seed=1, config=config,
                      placement="round_robin", **kwargs)


class TestProxiedMutexObligations:
    """The proxy keeps L2's obligations under every scope, so a mobile
    participant's fault never blocks the others."""

    @POLICIES
    def test_grantee_disconnected_before_its_grant_is_aborted(self, policy):
        sim = _constant_sim()
        manager = ProxyManager(sim.network, policy(), sim.mh_ids)
        resource = CriticalResource(sim.scheduler)
        mutex = ProxiedMutex(manager, resource)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.mh(0).disconnect()  # before any grant can arrive
        sim.drain()
        assert [mh for (_, mh) in mutex.aborted] == ["mh-0"]
        assert resource.holders_in_order() == ["mh-1"]
        assert [mh for (_, mh) in mutex.completed] == ["mh-1"]

    @POLICIES
    def test_holder_crashing_inside_the_region_is_vacated(self, policy):
        plan = FaultPlan(mh_crashes=(MhCrash("mh-0", at=6.0),))
        sim = _constant_sim(fault_plan=plan)
        manager = ProxyManager(sim.network, policy(), sim.mh_ids)
        resource = CriticalResource(sim.scheduler)
        mutex = ProxiedMutex(manager, resource, cs_duration=10.0)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.run(until=5.0)
        assert resource.holder == "mh-0"
        sim.drain()
        assert [mh for (_, mh) in mutex.aborted] == ["mh-0"]
        assert [mh for (_, mh) in mutex.completed] == ["mh-1"]
        resource.assert_no_overlap()

    def test_mss_crash_plan_is_refused(self):
        plan = FaultPlan(crashes=(MssCrash("mss-1", at=40.0),))
        sim = _constant_sim(fault_plan=plan)
        manager = ProxyManager(sim.network, FixedProxyPolicy(), sim.mh_ids)
        with pytest.raises(ConfigurationError, match="mss-1 at t=40.0"):
            ProxiedMutex(manager, CriticalResource(sim.scheduler))


def _mobile_run(make_mutex, seed):
    """M=4, N=8 under requests, moves and disconnections to t=300."""
    sim = Simulation(n_mss=4, n_mh=8, seed=seed)
    resource = CriticalResource(sim.scheduler)
    mutex = make_mutex(sim, resource)
    drivers = [
        MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                      random.Random(seed)),
        UniformMobility(sim.network, sim.mh_ids, 0.03,
                        rng=random.Random(seed + 1)),
        DisconnectionModel(sim.network, sim.mh_ids, 0.02, downtime=3.0,
                           rng=random.Random(seed + 2)),
    ]
    sim.run(until=300.0)
    for driver in drivers:
        driver.stop()
    sim.drain()
    totals = sim.metrics.snapshot()
    return {
        "accesses": resource.access_count,
        "completed": mutex.completed,
        "aborted": mutex.aborted,
        "costs": [totals.total(category) for category in
                  (Category.FIXED, Category.WIRELESS, Category.SEARCH)],
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_proxied_mutex_is_l2(seed):
    """Section 5 made literal: Lamport executed at local proxies *is*
    algorithm L2 -- the same accesses, completions, aborts and costs,
    disconnections included."""
    l2 = _mobile_run(lambda sim, resource: L2Mutex(sim.network, resource),
                     seed)
    proxied = _mobile_run(
        lambda sim, resource: ProxiedMutex(
            ProxyManager(sim.network, LocalProxyPolicy(), sim.mh_ids),
            resource),
        seed)
    assert l2["aborted"], "the workload never aborted a request"
    assert proxied == l2


class _CsEntries(Monitor):
    """Counts ``cs.enter`` events per scope."""

    name = "cs-entries"
    interests = ("cs.enter",)

    def __init__(self) -> None:
        super().__init__()
        self.by_scope: Counter = Counter()

    def on_event(self, event) -> None:
        self.by_scope[event.scope] += 1


def test_monitors_certify_the_proxied_mutex():
    entries = _CsEntries()
    sim = Simulation(n_mss=4, n_mh=8, seed=7,
                     monitors=default_monitors() + [entries])
    manager = ProxyManager(sim.network, FixedProxyPolicy(), sim.mh_ids)
    mutex = ProxiedMutex(manager, CriticalResource(sim.scheduler),
                         cs_duration=0.5)
    load = MutexWorkload(sim.network, mutex, sim.mh_ids, 0.05,
                         random.Random(7))
    moves = UniformMobility(sim.network, sim.mh_ids, 0.03,
                            rng=random.Random(8))
    sim.run(until=200.0)
    load.stop()
    moves.stop()
    sim.drain()
    sim.assert_invariants()
    assert entries.by_scope["proxied-mutex"] == len(mutex.completed) > 0
