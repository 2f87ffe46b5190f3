"""Tests for the reliable FIFO-exactly-once layer over lossy links."""

from __future__ import annotations

import pytest

from repro import (
    Category,
    FaultPlan,
    LinkFault,
    MssCrash,
    Simulation,
)
from repro.errors import SimulationError
from repro.net import ConstantLatency, NetworkConfig


def fault_sim(plan, n_mss=2, n_mh=0, seed=1):
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    return Simulation(
        n_mss=n_mss, n_mh=n_mh, seed=seed, config=config, fault_plan=plan
    )


def collect(sim, mss_index, kind):
    received = []
    sim.mss(mss_index).register_handler(
        kind, lambda m: received.append((sim.now, m.payload))
    )
    return received


def test_single_message_on_fresh_channel_delivers_exactly_once():
    """Regression: a lone message must not be eaten by its own floor."""
    sim = fault_sim(FaultPlan())
    received = collect(sim, 1, "t.data")
    sim.mss(0).send_fixed("mss-1", "t.data", "only", "t")
    sim.drain()
    assert [p for (_, p) in received] == ["only"]
    for name in ("rel.retransmit", "rel.dup_suppressed",
                 "rel.gap_skipped", "rel.give_up"):
        assert sim.metrics.fault_total(name) == 0


def test_transport_traffic_is_charged_to_the_wrapped_scope():
    sim = fault_sim(FaultPlan())
    collect(sim, 1, "t.data")
    sim.mss(0).send_fixed("mss-1", "t.data", "x", "t")
    sim.drain()
    # One data envelope plus one ack, both priced as fixed messages.
    assert sim.metrics.total(Category.FIXED, "t") == 2


def test_lossy_link_delivers_everything_exactly_once_in_order():
    plan = FaultPlan(
        link_faults=(LinkFault(drop=0.5),),
        seed=5,
        retransmit_timeout=2.0,
    )
    sim = fault_sim(plan)
    received = collect(sim, 1, "t.data")
    for i in range(20):
        sim.mss(0).send_fixed("mss-1", "t.data", i, "t")
    sim.drain()
    assert [p for (_, p) in received] == list(range(20))
    assert sim.metrics.fault_total("fixed.dropped") > 0
    assert sim.metrics.fault_total("rel.retransmit") > 0


def test_duplicated_envelopes_are_suppressed():
    plan = FaultPlan(link_faults=(LinkFault(duplicate=1.0),), seed=2)
    sim = fault_sim(plan)
    received = collect(sim, 1, "t.data")
    for i in range(5):
        sim.mss(0).send_fixed("mss-1", "t.data", i, "t")
    sim.drain()
    assert [p for (_, p) in received] == list(range(5))
    assert sim.metrics.fault_total("rel.dup_suppressed") >= 5


def test_fifo_restored_when_a_retransmit_arrives_late():
    """A later message must wait for the retransmit of an earlier one."""
    plan = FaultPlan(
        # Only the very first transmission window is lossy: message A's
        # original copy dies, its retransmit sails through.
        link_faults=(LinkFault(drop=1.0, end=0.5),),
        retransmit_timeout=5.0,
    )
    sim = fault_sim(plan)
    received = collect(sim, 1, "t.data")
    sim.mss(0).send_fixed("mss-1", "t.data", "A", "t")
    sim.scheduler.schedule_at(
        1.0, lambda: sim.mss(0).send_fixed("mss-1", "t.data", "B", "t")
    )
    sim.drain()
    # B physically arrived at t=2 but was buffered until A's retransmit
    # (sent at t=5) landed at t=6; both released in order at t=6.
    assert received == [(6.0, "A"), (6.0, "B")]
    assert sim.metrics.fault_total("rel.retransmit") == 1


def test_give_up_then_gap_skip_unblocks_the_channel():
    """A message to a long-dead station is abandoned after the retry
    budget; the advertised floor lets the receiver skip the permanent
    gap instead of blocking every later message head-of-line."""
    plan = FaultPlan(
        crashes=(MssCrash("mss-1", at=1.0, recover_at=20.0),),
        retransmit_timeout=1.0,
        retransmit_backoff=1.0,
        max_retransmits=3,
    )
    sim = fault_sim(plan)
    received = collect(sim, 1, "t.data")
    sim.scheduler.schedule_at(
        2.0, lambda: sim.mss(0).send_fixed("mss-1", "t.data", "lost", "t")
    )
    sim.scheduler.schedule_at(
        25.0, lambda: sim.mss(0).send_fixed("mss-1", "t.data", "after", "t")
    )
    sim.drain()
    assert [p for (_, p) in received] == ["after"]
    assert sim.metrics.fault_total("rel.give_up") == 1
    assert sim.metrics.fault_total("rel.gap_skipped") == 1


def test_lost_acks_only_cause_reacked_duplicates():
    """Dropping acks triggers retransmissions whose copies the receiver
    suppresses and re-acks -- the application still sees exactly one."""
    plan = FaultPlan(
        link_faults=(LinkFault(drop=1.0, src="mss-1", dst="mss-0",
                               end=3.0),),
        retransmit_timeout=4.0,
    )
    sim = fault_sim(plan)
    received = collect(sim, 1, "t.data")
    sim.mss(0).send_fixed("mss-1", "t.data", "x", "t")
    sim.drain()
    assert [p for (_, p) in received] == ["x"]
    assert sim.metrics.fault_total("rel.retransmit") >= 1
    assert sim.metrics.fault_total("rel.dup_suppressed") >= 1


def test_reliable_layer_installs_once():
    sim = fault_sim(FaultPlan())
    with pytest.raises(SimulationError):
        sim.network.install_reliable()


def test_plan_can_opt_out_of_reliability():
    plan = FaultPlan(link_faults=(LinkFault(drop=1.0),), reliable=False)
    sim = fault_sim(plan)
    assert sim.network.reliable is None
    received = collect(sim, 1, "t.data")
    sim.mss(0).send_fixed("mss-1", "t.data", "x", "t")
    sim.drain()
    assert received == []  # raw loss, exactly what the plan asked for


def test_transport_parameters_come_from_the_plan():
    plan = FaultPlan(
        retransmit_timeout=7.0, retransmit_backoff=2.0, max_retransmits=4
    )
    sim = fault_sim(plan)
    rel = sim.network.reliable
    assert rel.timeout == 7.0
    assert rel.backoff == 2.0
    assert rel.max_retries == 4
