"""Tests for Algorithm L2: two-tier Lamport mutual exclusion."""

from __future__ import annotations

import pytest

from repro import Category, CriticalResource, L2Mutex
from repro import Simulation
from repro.analysis import formulas
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, MhCrash, MssCrash

from conftest import make_sim


def build_l2(n_mss=4, n_mh=8, **kwargs):
    sim = make_sim(n_mss=n_mss, n_mh=n_mh, **kwargs)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource)
    return sim, resource, mutex


def test_single_request_grants_and_releases():
    sim, resource, mutex = build_l2()
    mutex.request("mh-0")
    sim.drain()
    assert resource.access_count == 1
    assert [mh for (_, mh) in mutex.completed] == ["mh-0"]


def test_execution_cost_matches_paper_formula_when_mh_moves():
    """The paper's accounting assumes the requester moved, so the grant
    needs a search and the release a fixed relay: total
    3*C_w + C_f + C_s + 3*(M-1)*C_f."""
    sim, resource, mutex = build_l2(n_mss=5)
    costs = sim.cost_model
    before = sim.metrics.snapshot()
    mutex.request("mh-0")
    sim.mh(0).move_to("mss-2")  # leave immediately after the init
    sim.drain()
    delta = sim.metrics.since(before)
    assert delta.cost(costs, "L2") == formulas.l2_execution_cost(5, costs)
    assert delta.total(Category.WIRELESS, "L2") == \
        formulas.l2_wireless_message_count()
    assert delta.total(Category.SEARCH, "L2") == formulas.l2_search_count()
    assert delta.total(Category.FIXED, "L2") == \
        formulas.l2_fixed_message_count(5)
    assert resource.access_count == 1


def test_stationary_requester_is_even_cheaper_than_formula():
    """When the MH does not move, locality removes the search and the
    relay -- our implementation exploits what the paper's worst-case
    accounting charges unconditionally."""
    sim, resource, mutex = build_l2(n_mss=5)
    costs = sim.cost_model
    before = sim.metrics.snapshot()
    mutex.request("mh-0")
    sim.drain()
    delta = sim.metrics.since(before)
    assert delta.total(Category.SEARCH, "L2") == 0
    assert delta.cost(costs, "L2") < formulas.l2_execution_cost(5, costs)


def test_requester_energy_is_three_wireless_messages():
    sim, resource, mutex = build_l2()
    before = sim.metrics.snapshot()
    mutex.request("mh-0")
    sim.drain()
    delta = sim.metrics.since(before)
    assert delta.energy("mh-0") == formulas.l2_energy_per_request()
    # No other MH spends any energy -- L1's drawback removed.
    for mh_id in sim.mh_ids[1:]:
        assert delta.energy(mh_id) == 0


def test_cost_constant_in_n():
    results = {}
    for n_mh in (4, 16):
        sim, resource, mutex = build_l2(n_mss=4, n_mh=n_mh)
        before = sim.metrics.snapshot()
        mutex.request("mh-0")
        sim.drain()
        results[n_mh] = sim.metrics.since(before).cost(
            sim.cost_model, "L2"
        )
    assert results[4] == results[16]


def test_concurrent_requests_safe_and_all_served():
    sim, resource, mutex = build_l2(n_mss=4, n_mh=8)
    for mh_id in sim.mh_ids:
        mutex.request(mh_id)
    sim.drain()
    assert resource.access_count == 8
    resource.assert_no_overlap()


def test_grants_follow_init_timestamp_order():
    """If ts(request(h1)) < ts(request(h2)), h1 is granted first."""
    sim, resource, mutex = build_l2(n_mss=4, n_mh=8)
    for mh_id in sim.mh_ids:
        mutex.request(mh_id)
    sim.drain()
    granted_ts = [ts for (ts, _) in mutex.grant_log]
    assert granted_ts == sorted(granted_ts)


def test_mhs_keep_no_queue_and_nonparticipants_idle():
    sim, resource, mutex = build_l2()
    mutex.request("mh-0")
    sim.drain()
    # All queue state lives at the MSSs.
    for mss_id in sim.mss_ids:
        assert mutex.node(mss_id).queue_size == 0  # drained after release


class TestDisconnection:
    def test_disconnect_before_grant_aborts_request(self):
        sim, resource, mutex = build_l2(n_mss=4, n_mh=4)
        mutex.request("mh-0")
        mutex.request("mh-1")
        # mh-0 disconnects right away, before any grant can arrive.
        sim.mh(0).disconnect()
        sim.drain()
        # mh-0's request was dropped; mh-1 still got the region.
        assert [mh for (_, mh) in mutex.aborted] == ["mh-0"]
        assert "mh-1" in resource.holders_in_order()
        assert "mh-0" not in resource.holders_in_order()
        resource.assert_no_overlap()

    def test_disconnect_after_grant_requires_reconnect_to_release(self):
        sim, resource, mutex = build_l2(n_mss=4, n_mh=4)
        mutex.request("mh-0")
        mutex.request("mh-1")
        sim.run(until=3.0)  # grant reaches mh-0; it is inside the region
        assert resource.holder == "mh-0"
        sim.mh(0).disconnect()
        sim.drain()
        # mh-1 cannot proceed until mh-0 reconnects and releases.
        assert resource.holder is None or resource.holder == "mh-0"
        assert len(mutex.completed) == 0
        sim.mh(0).reconnect("mss-2")
        sim.drain()
        assert [mh for (_, mh) in mutex.completed] == ["mh-0", "mh-1"]
        resource.assert_no_overlap()

    def test_disconnect_of_bystander_is_harmless(self):
        sim, resource, mutex = build_l2(n_mss=4, n_mh=4)
        sim.mh(3).disconnect()
        sim.drain()
        mutex.request("mh-0")
        sim.drain()
        assert resource.access_count == 1


def test_requests_from_same_mss_for_different_mhs():
    sim, resource, mutex = build_l2(n_mss=2, n_mh=4,
                                    placement="single_cell")
    mutex.request("mh-0")
    mutex.request("mh-1")
    sim.drain()
    assert resource.access_count == 2
    resource.assert_no_overlap()


def test_moving_requester_between_init_and_grant_is_found():
    sim, resource, mutex = build_l2(n_mss=6, n_mh=6)
    mutex.request("mh-0")
    sim.mh(0).move_to("mss-3")
    sim.drain()
    assert resource.access_count == 1
    # The release was relayed from mss-3 back to the proxy mss-0.
    assert [mh for (_, mh) in mutex.completed] == ["mh-0"]


def test_mss_crash_plan_is_refused_at_construction():
    """One recoverable MSS crash can wedge L2 for good (a crashed station
    loses its Lamport queue), so the combination fails, located."""
    plan = FaultPlan(crashes=(MssCrash("mss-1", at=40.0, recover_at=80.0),))
    sim = Simulation(n_mss=4, n_mh=8, seed=42, fault_plan=plan)
    with pytest.raises(ConfigurationError,
                       match=r"L2.*mss-1 at t=40\.0 \(recover_at=80\.0\)"):
        L2Mutex(sim.network, CriticalResource(sim.scheduler))
    mh_only = FaultPlan(mh_crashes=(MhCrash("mh-1", at=40.0),))
    sim = Simulation(n_mss=4, n_mh=8, seed=42, fault_plan=mh_only)
    L2Mutex(sim.network, CriticalResource(sim.scheduler))
