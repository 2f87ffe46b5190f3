"""MH crash/recovery faults: the plan, the injector, and the hardened
protocols (L1, R1, search, proxy) that must survive them.

The chaos-matrix acceptance runs live in ``test_mh_crash_chaos.py``;
the recovery subsystem's own tests in ``test_recovery.py``.  This file
covers the fault layer itself: validation and serialization of
``MhCrash``, the injector's crash/recover mechanics (silent detach,
vouching cell, amnesia, listener isolation), and the per-algorithm
crash tolerance that keeps a dead host from wedging the survivors.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    CriticalResource,
    FaultPlan,
    L1Mutex,
    MhCrash,
    MssCrash,
    R1Mutex,
    Simulation,
)
from repro.errors import ConfigurationError
from repro.hosts import HostState
from repro.net import ConstantLatency, NetworkConfig
from repro.net.messages import Message
from repro.proxy import (
    AdaptiveProxyPolicy,
    FixedProxyPolicy,
    ProxiedMessenger,
    ProxyManager,
)


def fault_sim(plan, n_mss=3, n_mh=3, seed=1, **kwargs):
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    return Simulation(
        n_mss=n_mss, n_mh=n_mh, seed=seed, config=config,
        fault_plan=plan, **kwargs,
    )


def mh_plan(*crashes, **kwargs):
    return FaultPlan(mh_crashes=tuple(crashes), seed=1, **kwargs)


class TestMhCrashPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            crashes=(MssCrash("mss-1", at=5.0, recover_at=30.0),),
            mh_crashes=(
                MhCrash("mh-0", at=10.0, recover_at=25.0),
                MhCrash("mh-1", at=12.0, amnesia=True),
            ),
            seed=9,
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_rejects_recover_before_crash(self):
        with pytest.raises(ConfigurationError):
            MhCrash("mh-0", at=10.0, recover_at=10.0)
        with pytest.raises(ConfigurationError):
            MhCrash("mh-0", at=10.0, recover_at=5.0)
        with pytest.raises(ConfigurationError):
            MhCrash("mh-0", at=-1.0)

    def test_rejects_overlapping_windows_per_host(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(mh_crashes=(
                MhCrash("mh-0", at=10.0, recover_at=30.0),
                MhCrash("mh-0", at=20.0, recover_at=40.0),
            ))
        # A permanent crash overlaps everything after it.
        with pytest.raises(ConfigurationError):
            FaultPlan(mh_crashes=(
                MhCrash("mh-0", at=10.0),
                MhCrash("mh-0", at=50.0, recover_at=60.0),
            ))
        # Disjoint windows for one host, and any windows for distinct
        # hosts, are fine.
        FaultPlan(mh_crashes=(
            MhCrash("mh-0", at=10.0, recover_at=20.0),
            MhCrash("mh-0", at=30.0, recover_at=40.0),
            MhCrash("mh-1", at=12.0, recover_at=35.0),
        ))

    def test_bind_rejects_unknown_mh(self):
        plan = mh_plan(MhCrash("mh-99", at=5.0))
        with pytest.raises(ConfigurationError):
            fault_sim(plan)


class TestMhCrashInjector:
    def test_crash_detaches_silently_and_flags_the_cell(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0))
        sim = fault_sim(plan)
        cell = sim.mh(0).current_mss_id
        sim.run(until=10.0)
        mh = sim.mh(0)
        assert mh.crashed
        assert mh.state is HostState.DISCONNECTED
        assert mh.current_mss_id is None
        # The serving cell noticed the silence (Section 2's flag), even
        # though no disconnect(r) message was ever sent.
        assert "mh-0" in sim.network.mss(cell).disconnected_mhs
        assert sim.metrics.fault_total("mh.crash") == 1

    def test_recovery_reconnects_at_the_crash_cell(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0, recover_at=12.0))
        sim = fault_sim(plan)
        cell = sim.mh(0).current_mss_id
        sim.drain()
        mh = sim.mh(0)
        assert not mh.crashed
        assert mh.is_connected
        assert mh.current_mss_id == cell
        assert sim.metrics.fault_total("mh.recover") == 1

    def test_amnesiac_recovery_forgets_the_previous_cell(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0, recover_at=12.0,
                               amnesia=True))
        sim = fault_sim(plan)
        sim.run(until=10.0)
        # Amnesia wiped the host's memory of where it was attached ...
        assert sim.mh(0).disconnect_mss_id is None
        sim.drain()
        # ... yet the broadcast find_disconnect query still finds its
        # flag and the host comes back connected.
        assert sim.mh(0).is_connected

    def test_crash_mid_transit_flags_the_cell_last_left(self):
        plan = mh_plan(MhCrash("mh-0", at=5.2, recover_at=20.0))
        sim = fault_sim(plan)
        origin = sim.mh(0).current_mss_id
        sim.scheduler.schedule_at(5.0, sim.mh(0).move_to, "mss-1")
        sim.run(until=8.0)
        # The crash hit between leave(origin) and join(mss-1): the
        # origin cell vouches for the host; the join died with it.
        assert sim.mh(0).crashed
        assert "mh-0" in sim.network.mss(origin).disconnected_mhs
        sim.drain()
        assert sim.mh(0).is_connected

    def test_crash_listener_failures_are_isolated(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0, recover_at=12.0))
        sim = fault_sim(plan)
        seen = []

        def bad_listener(mh_id):
            raise RuntimeError("protocol bug")

        sim.fault_injector.add_mh_crash_listener(bad_listener)
        sim.fault_injector.add_mh_crash_listener(seen.append)
        sim.drain()
        # The raising listener was contained and the one registered
        # after it still ran; the failure is a counted fault event.
        assert seen == ["mh-0"]
        assert sim.fault_injector.stats["injector.listener_error"] == 1
        assert sim.metrics.fault_total("injector.listener_error") == 1
        assert sim.mh(0).is_connected  # recovery went ahead regardless

    def test_session_bump_invalidates_in_flight_downlinks(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0, recover_at=12.0))
        sim = fault_sim(plan)
        before = sim.mh(0).session
        sim.drain()
        # crash and reconnect each bump the session, so any downlink
        # addressed to the pre-crash incarnation is unmatchable.
        assert sim.mh(0).session >= before + 2


class TestL1CrashTolerance:
    def test_peers_disclaim_a_crashed_requester(self):
        plan = mh_plan(MhCrash("mh-0", at=2.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = L1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=1.0)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.drain()
        # mh-0 died before being served; the survivors purged its queue
        # entries so their queue heads stay reachable.
        assert sim.metrics.fault_total("l1.requests_disclaimed") == 1
        assert mutex.node("mh-1").queue_size == 1  # only mh-1's own entry
        # A *permanently* dead peer still blocks grants -- Lamport needs
        # a later timestamp from every participant, which is exactly the
        # L1 drawback the paper calls out.  The point here is that the
        # system idles (drain returned) instead of retrying forever.
        assert mutex.completed == []
        assert "mh-1" in mutex.node("mh-1").pending_tags()

    def test_recovered_requester_resubmits_and_is_served(self):
        plan = mh_plan(MhCrash("mh-0", at=2.0, recover_at=20.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = L1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=1.0)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.drain()
        served = {mh for (_, mh) in mutex.completed}
        assert served == {"mh-0", "mh-1"}
        resource.assert_no_overlap()

    def test_crash_inside_cs_aborts_the_grant(self):
        plan = mh_plan(MhCrash("mh-0", at=6.0, recover_at=25.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = L1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=30.0)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.drain()
        # The crash hit mh-0 *inside* the region: the occupancy was
        # aborted and the resource freed rather than held for the full
        # 30-unit duration by a ghost.
        assert sim.metrics.fault_total("l1.grant_aborted_by_crash") == 1
        # mh-0's aborted access is not a completion; mh-1 was parked
        # until the recovery re-announcement let it hear a fresh
        # timestamp from mh-0, then it was served with no extra nudge.
        assert {mh for (_, mh) in mutex.completed} == {"mh-1"}
        # And the amnesiac rejoiner itself can be served afterwards.
        mutex.request("mh-0")
        sim.drain()
        served = {mh for (_, mh) in mutex.completed}
        assert served == {"mh-0", "mh-1"}
        resource.assert_no_overlap()


class TestR1CrashTolerance:
    def test_token_dies_with_holder_and_is_regenerated(self):
        # mh-1 wants the region, receives the token, and crashes while
        # inside: the token is in its (volatile) memory and dies with
        # it.  auto_repair regenerates one at the survivors' ring.
        plan = mh_plan(MhCrash("mh-1", at=8.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = R1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=15.0, max_traversals=3,
                        auto_repair=True)
        mutex.want("mh-1")
        mutex.want("mh-2")
        mutex.start()
        sim.drain()
        assert sim.metrics.fault_total("r1.grant_aborted_by_crash") == 1
        assert sim.metrics.fault_total("r1.token_regenerated") == 1
        # The regenerated token still serves the surviving requester.
        assert {mh for (_, mh) in mutex.completed} == {"mh-2"}
        assert mutex.stalled_on is None
        resource.assert_no_overlap()

    def test_without_auto_repair_the_ring_stalls_explicitly(self):
        plan = mh_plan(MhCrash("mh-1", at=8.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = R1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=15.0, max_traversals=3)
        mutex.want("mh-1")
        mutex.start()
        sim.drain()
        # Plain R1 has no repair protocol: the loss is surfaced as an
        # explicit stall, never an infinite retry loop (drain returned).
        assert mutex.stalled_on == "mh-1"

    def test_recovered_member_rejoins_the_ring(self):
        plan = mh_plan(MhCrash("mh-1", at=2.0, recover_at=30.0))
        sim = fault_sim(plan)
        resource = CriticalResource(sim.scheduler)
        mutex = R1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=1.0, max_traversals=40,
                        auto_repair=True)
        mutex.want("mh-0")
        mutex.start()
        # The rejoiner asks for the region as soon as it is back; the
        # token must come around to it on the re-formed ring.
        sim.scheduler.schedule_at(31.0, mutex.want, "mh-1")
        sim.drain()
        assert sim.metrics.fault_total("r1.member_rejoined") == 1
        assert "mh-1" in {mh for (_, mh) in mutex.completed}
        resource.assert_no_overlap()


class TestSearchAndProxyPurge:
    def test_caching_search_purges_a_crashed_host(self):
        plan = mh_plan(MhCrash("mh-0", at=5.0, recover_at=12.0))
        sim = fault_sim(plan, search="caching")
        sim.mh(0).register_handler("app.ping", lambda m: None)
        sim.network.send_to_mh(
            "mss-1", "mh-0",
            Message(kind="app.ping", src="mss-1", dst="mh-0",
                    payload=1, scope="t"),
        )
        sim.run(until=4.0)
        search = sim.network.search_protocol
        assert any(key[1] == "mh-0" for key in search._cache)
        sim.run(until=6.0)
        # The crash purged every cached pointer at every station.
        assert not any(key[1] == "mh-0" for key in search._cache)
        sim.drain()

    @pytest.mark.parametrize(
        "policy", [FixedProxyPolicy, AdaptiveProxyPolicy],
        ids=["fixed", "adaptive"],
    )
    def test_proxy_letter_to_crashed_host_is_missed_not_wedged(
        self, policy
    ):
        plan = mh_plan(MhCrash("mh-1", at=5.0))
        sim = fault_sim(plan)
        manager = ProxyManager(sim.network, policy(), sim.mh_ids)
        messenger = ProxiedMessenger(manager)
        sim.run(until=6.0)
        messenger.send("mh-0", "mh-1", "are you there?")
        # A permanently dead recipient must resolve to a miss; an
        # unbounded retry loop would make this drain never return.
        sim.drain(max_events=50_000)
        assert len(messenger.missed) == 1
        assert len(messenger.delivered) == 0

    @pytest.mark.parametrize(
        "policy", [FixedProxyPolicy, AdaptiveProxyPolicy],
        ids=["fixed", "adaptive"],
    )
    def test_proxy_delivers_again_after_recovery(self, policy):
        plan = mh_plan(MhCrash("mh-1", at=5.0, recover_at=15.0))
        sim = fault_sim(plan)
        manager = ProxyManager(sim.network, policy(), sim.mh_ids)
        messenger = ProxiedMessenger(manager)
        sim.drain()
        messenger.send("mh-0", "mh-1", "welcome back")
        sim.drain()
        assert len(messenger.delivered) == 1
