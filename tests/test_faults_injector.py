"""Tests for fault plans and the fault injector."""

from __future__ import annotations

import json

import pytest

from repro import (
    Category,
    FaultPlan,
    LinkFault,
    MssCrash,
    Partition,
    Simulation,
)
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultInjector
from repro.net import ConstantLatency, Message, NetworkConfig

from conftest import make_sim


def fault_sim(plan, n_mss=3, n_mh=0, seed=1, **config_kwargs):
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
        **config_kwargs,
    )
    return Simulation(
        n_mss=n_mss, n_mh=n_mh, seed=seed, config=config, fault_plan=plan
    )


def collect(sim, mss_index, kind):
    """Record (time, payload) for every ``kind`` arriving at a MSS."""
    received = []
    sim.mss(mss_index).register_handler(
        kind, lambda m: received.append((sim.now, m.payload))
    )
    return received


class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(drop=0.2, duplicate=0.1, extra_delay=3.0,
                          src="mss-0", end=50.0),
            ),
            partitions=(
                Partition(groups=(("mss-0",), ("mss-1", "mss-2")),
                          start=10.0, end=20.0),
            ),
            crashes=(MssCrash("mss-1", at=5.0, recover_at=30.0),),
            seed=9,
            reliable=False,
            rejoin_delay=2.5,
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"drop_rate": 0.5})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkFault(drop=1.5)
        with pytest.raises(ConfigurationError):
            LinkFault(extra_delay=-1.0)
        with pytest.raises(ConfigurationError):
            LinkFault(start=5.0, end=5.0)
        with pytest.raises(ConfigurationError):
            MssCrash("mss-0", at=3.0, recover_at=3.0)
        with pytest.raises(ConfigurationError):
            Partition(groups=(("mss-0",), ("mss-0",)))
        with pytest.raises(ConfigurationError):
            FaultPlan(rejoin_delay=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(retransmit_backoff=0.5)

    def test_link_fault_matching(self):
        fault = LinkFault(drop=1.0, src="mss-0", dst="mss-1",
                          start=5.0, end=10.0)
        assert fault.applies("mss-0", "mss-1", 5.0)
        assert not fault.applies("mss-0", "mss-1", 10.0)  # end exclusive
        assert not fault.applies("mss-0", "mss-1", 2.0)
        assert not fault.applies("mss-1", "mss-0", 7.0)

    def test_partition_severs_across_groups_only(self):
        part = Partition(groups=(("mss-0",), ("mss-1",)), end=10.0)
        assert part.severs("mss-0", "mss-1", 5.0)
        assert part.severs("mss-0", "mss-2", 5.0)  # implicit group
        assert not part.severs("mss-2", "mss-3", 5.0)  # both implicit
        assert not part.severs("mss-0", "mss-1", 15.0)  # window over


class TestLinkFaults:
    def test_drop_probability_one_loses_every_message(self):
        plan = FaultPlan(
            link_faults=(LinkFault(drop=1.0),), reliable=False
        )
        sim = fault_sim(plan)
        received = collect(sim, 1, "t.ping")
        for i in range(3):
            sim.mss(0).send_fixed("mss-1", "t.ping", i, "t")
        sim.drain()
        assert received == []
        assert sim.metrics.fault_total("fixed.dropped") == 3
        # The transmission was still paid for: loss is not a discount.
        assert sim.metrics.total(Category.FIXED, "t") == 3

    def test_duplicate_probability_one_delivers_twice(self):
        plan = FaultPlan(
            link_faults=(LinkFault(duplicate=1.0),), reliable=False
        )
        sim = fault_sim(plan)
        received = collect(sim, 1, "t.ping")
        sim.mss(0).send_fixed("mss-1", "t.ping", "x", "t")
        sim.drain()
        assert [payload for (_, payload) in received] == ["x", "x"]

    def test_extra_delay_defers_arrival(self):
        plan = FaultPlan(
            link_faults=(LinkFault(extra_delay=3.0),), reliable=False
        )
        sim = fault_sim(plan)
        received = collect(sim, 1, "t.ping")
        sim.mss(0).send_fixed("mss-1", "t.ping", "x", "t")
        sim.drain()
        assert received == [(4.0, "x")]  # 1.0 latency + 3.0 penalty

    def test_window_and_direction_limit_the_damage(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(drop=1.0, src="mss-0", dst="mss-1", end=10.0),
            ),
            reliable=False,
        )
        sim = fault_sim(plan)
        forward = collect(sim, 1, "t.ping")
        backward = collect(sim, 0, "t.pong")
        sim.mss(0).send_fixed("mss-1", "t.ping", "early", "t")
        sim.mss(1).send_fixed("mss-0", "t.pong", "reverse", "t")
        sim.scheduler.schedule_at(
            12.0,
            lambda: sim.mss(0).send_fixed("mss-1", "t.ping", "late", "t"),
        )
        sim.drain()
        assert [p for (_, p) in forward] == ["late"]
        assert [p for (_, p) in backward] == ["reverse"]


class TestPartitions:
    def test_cross_group_messages_dropped_until_heal(self):
        plan = FaultPlan(
            partitions=(
                Partition(groups=(("mss-0",), ("mss-1",)), end=10.0),
            ),
            reliable=False,
        )
        sim = fault_sim(plan)
        received = collect(sim, 1, "t.ping")
        sim.mss(0).send_fixed("mss-1", "t.ping", "severed", "t")
        sim.scheduler.schedule_at(
            11.0,
            lambda: sim.mss(0).send_fixed("mss-1", "t.ping", "healed", "t"),
        )
        sim.drain()
        assert [p for (_, p) in received] == ["healed"]
        assert sim.metrics.fault_total("fixed.partition_dropped") == 1

    def test_same_side_traffic_unaffected(self):
        plan = FaultPlan(
            partitions=(Partition(groups=(("mss-0",), ("mss-1",)),),),
            reliable=False,
        )
        sim = fault_sim(plan, n_mss=4)
        received = collect(sim, 3, "t.ping")
        sim.mss(2).send_fixed("mss-3", "t.ping", "implicit", "t")
        sim.drain()
        assert [p for (_, p) in received] == ["implicit"]


class TestCrashes:
    def test_crash_orphans_local_mhs_and_they_rejoin(self):
        plan = FaultPlan(
            crashes=(MssCrash("mss-0", at=5.0),), rejoin_delay=2.0
        )
        sim = fault_sim(plan, n_mss=3, n_mh=3)  # mh-0 lives at mss-0
        sim.drain()
        mh = sim.mh(0)
        assert sim.mss(0).crashed
        assert not sim.mss(0).local_mhs
        assert mh.is_connected
        assert mh.current_mss_id != "mss-0"
        assert not mh.orphaned
        snap = sim.metrics.snapshot()
        assert snap.fault_total("mss.crash") == 1
        assert snap.fault_total("mh.orphaned") == 1
        assert snap.fault_total("mh.rejoined") == 1
        assert snap.recovery_times == (pytest.approx(2.0),)

    def test_join_in_flight_to_a_crashing_mss_is_orphaned_too(self):
        """mh-0 arrives in mss-1's cell at t=2 and uplinks its join,
        which lands at t=2.5; mss-1 crashes at t=2.2.  The MH must not
        stay attached to a cell nobody serves: it is orphaned with the
        cell's own MHs, rejoins a live station, and is reachable."""
        plan = FaultPlan(
            crashes=(MssCrash("mss-1", at=2.2),), rejoin_delay=2.0
        )
        sim = fault_sim(plan, n_mss=3, n_mh=3, transit_time=1.0)
        mh = sim.mh(0)  # lives at mss-0; mh-1 lives at mss-1
        sim.scheduler.schedule_at(1.0, mh.move_to, "mss-1")
        sim.run(until=10.0)
        assert mh.is_connected
        assert mh.current_mss_id != "mss-1"
        assert mh.host_id in sim.network.mss(mh.current_mss_id).local_mhs
        assert sim.metrics.fault_total("mh.orphaned") == 2
        received = []
        mh.register_handler("t.down", lambda m: received.append(m.payload))
        sim.mss(2).send_to_mh("mh-0", "t.down", "hello", "t")
        sim.run(until=40.0)
        assert received == ["hello"]
        assert sim.metrics.fault_total("send_to_mh.gave_up") == 0

    def test_messages_to_crashed_mss_vanish(self):
        plan = FaultPlan(crashes=(MssCrash("mss-1", at=0.0),),
                         reliable=False)
        sim = fault_sim(plan)
        received = collect(sim, 1, "t.ping")
        sim.mss(0).send_fixed("mss-1", "t.ping", "x", "t")
        sim.drain()
        assert received == []
        assert sim.metrics.fault_total("msg.to_crashed_mss") == 1

    def test_crashed_mss_transmits_nothing(self):
        plan = FaultPlan(crashes=(MssCrash("mss-1", at=0.0),),
                         reliable=False)
        sim = fault_sim(plan)
        received = collect(sim, 0, "t.pong")
        sim.drain()  # let the crash fire
        sim.mss(1).send_fixed("mss-0", "t.pong", "x", "t")
        sim.drain()
        assert received == []
        assert sim.metrics.fault_total("fixed.dropped_src_crashed") == 1

    def test_crashed_mss_wireless_is_dead_air(self):
        plan = FaultPlan(crashes=(MssCrash("mss-1", at=0.0),),
                         rejoin_delay=50.0)
        sim = fault_sim(plan, n_mss=3, n_mh=3)  # mh-1 lives at mss-1
        sim.run(until=1.0)  # crash fired, rejoin still pending
        lost = []
        sim.network.send_wireless_down(
            "mss-1", "mh-1",
            Message(kind="t.down", src="mss-1", dst="mh-1",
                    payload=None, scope="t"),
            on_lost=lost.append,
        )
        assert len(lost) == 1
        assert sim.metrics.fault_total("wireless.dropped_src_crashed") == 1

    def test_recovery_restores_service_and_fires_listeners(self):
        plan = FaultPlan(
            crashes=(MssCrash("mss-1", at=5.0, recover_at=10.0),),
            reliable=False,
        )
        sim = fault_sim(plan)
        crashes = []
        sim.fault_injector.add_crash_listener(crashes.append)
        received = collect(sim, 1, "t.ping")
        sim.scheduler.schedule_at(
            12.0,
            lambda: sim.mss(0).send_fixed("mss-1", "t.ping", "back", "t"),
        )
        sim.drain()
        assert crashes == ["mss-1"]
        assert [p for (_, p) in received] == ["back"]
        assert sim.metrics.fault_total("mss.recover") == 1
        assert not sim.mss(1).crashed


class TestInstallation:
    def test_injector_installs_once(self):
        plan = FaultPlan()
        sim = fault_sim(plan)
        with pytest.raises(SimulationError):
            sim.network.install_faults(FaultInjector(plan))

    def test_injector_binds_once(self):
        sim = fault_sim(FaultPlan())
        with pytest.raises(SimulationError):
            sim.fault_injector.bind(sim.network)


class TestDeliveryCap:
    def test_send_to_mh_gives_up_past_attempt_cap(self):
        sim = make_sim(n_mss=2, n_mh=1, mh_delivery_max_attempts=1)
        outcomes = []
        sim.network.send_to_mh(
            "mss-0",
            "mh-0",
            Message(kind="t.m", src="mss-0", dst="mh-0",
                    payload=None, scope="t"),
            on_disconnected=outcomes.append,
        )
        # The MH leaves before the downlink lands; the one allowed
        # attempt is burnt, so the retry gives up instead of looping.
        sim.mh(0).move_to("mss-1")
        sim.drain()
        assert len(outcomes) == 1
        assert outcomes[0].gave_up
        assert outcomes[0].disconnected
        assert sim.metrics.fault_total("send_to_mh.gave_up") == 1

    def test_default_cap_allows_normal_delivery(self):
        sim = make_sim(n_mss=2, n_mh=1)
        delivered = []
        sim.mh(0).register_handler("t.m", delivered.append)
        sim.network.send_to_mh(
            "mss-1",
            "mh-0",
            Message(kind="t.m", src="mss-1", dst="mh-0",
                    payload=None, scope="t"),
        )
        sim.drain()
        assert len(delivered) == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(mh_delivery_max_attempts=0)
