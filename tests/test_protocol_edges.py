"""Edge-case tests for the trickier protocol branches."""

from __future__ import annotations

from repro import (
    Category,
    CriticalResource,
    L2Mutex,
    R2Mutex,
)
from repro.groups import LocationViewGroup
from repro.multicast import ExactlyOnceMulticast

from conftest import make_sim


class TestL2Edges:
    def test_two_inits_at_same_mss_interleave_correctly(self):
        sim = make_sim(n_mss=3, n_mh=4, placement="single_cell")
        resource = CriticalResource(sim.scheduler)
        mutex = L2Mutex(sim.network, resource, cs_duration=0.5)
        mutex.request("mh-0")
        mutex.request("mh-1")
        mutex.request("mh-2")
        sim.drain()
        assert resource.access_count == 3
        resource.assert_no_overlap()
        # Grants at one MSS still follow the init order.
        assert resource.holders_in_order() == ["mh-0", "mh-1", "mh-2"]

    def test_grant_to_mh_in_transit_waits(self):
        sim = make_sim(n_mss=4, n_mh=4, transit_time=20.0)
        resource = CriticalResource(sim.scheduler)
        mutex = L2Mutex(sim.network, resource)
        mutex.request("mh-0")
        sim.run(until=0.6)  # init has arrived; Lamport is running
        sim.mh(0).move_to("mss-2")  # long transit
        sim.drain()
        assert resource.access_count == 1
        assert [m for _, m in mutex.completed] == ["mh-0"]

    def test_release_relay_from_third_cell(self):
        sim = make_sim(n_mss=5, n_mh=5)
        resource = CriticalResource(sim.scheduler)
        mutex = L2Mutex(sim.network, resource, cs_duration=5.0)
        mutex.request("mh-0")
        while resource.holder != "mh-0":
            assert sim.scheduler.step()
        # Move twice while holding: the release is relayed from the
        # final cell, not the grant cell.
        sim.mh(0).move_to("mss-2")
        sim.drain()
        sim.mh(0).move_to("mss-3")
        sim.drain()
        assert [m for _, m in mutex.completed] == ["mh-0"]

    def test_request_after_release_same_mh(self):
        sim = make_sim(n_mss=3, n_mh=3)
        resource = CriticalResource(sim.scheduler)
        mutex = L2Mutex(sim.network, resource)
        mutex.request("mh-0")
        sim.drain()
        mutex.request("mh-0")
        sim.drain()
        assert resource.holders_in_order() == ["mh-0", "mh-0"]


class TestR2Edges:
    def test_request_arriving_while_token_held_waits_one_traversal(self):
        sim = make_sim(n_mss=3, n_mh=3, placement="single_cell")
        resource = CriticalResource(sim.scheduler)
        mutex = R2Mutex(sim.network, resource, max_traversals=2,
                        cs_duration=3.0)
        mutex.request("mh-0")
        sim.drain()
        mutex.start()
        # While mh-0 holds the region (token out at the MH), mh-1
        # requests at the same MSS: it must wait for the next traversal.
        sim.run(until=1.0)
        assert resource.holder == "mh-0"
        mutex.request("mh-1")
        sim.drain()
        assert resource.holders_in_order() == ["mh-0", "mh-1"]

    def test_empty_ring_traversals_are_cheap_and_finite(self):
        sim = make_sim(n_mss=4, n_mh=0)
        resource = CriticalResource(sim.scheduler)
        mutex = R2Mutex(sim.network, resource, max_traversals=5)
        mutex.start()
        sim.drain()
        assert mutex.finished
        assert sim.metrics.total(Category.FIXED, "R2") == 4 * 5

    def test_return_from_same_cell_costs_no_fixed_hop(self):
        sim = make_sim(n_mss=3, n_mh=3)
        resource = CriticalResource(sim.scheduler)
        mutex = R2Mutex(sim.network, resource, max_traversals=1)
        before = sim.metrics.snapshot()
        mutex.request("mh-1")  # stays at mss-1
        sim.drain()
        mutex.start()
        sim.drain()
        delta = sim.metrics.since(before)
        # request (C_w) + grant (C_w, local) + return (C_w, local)
        # + 3 token hops: no search, 3 fixed.
        assert delta.total(Category.SEARCH, "R2") == 0
        assert delta.total(Category.FIXED, "R2") == 3
        assert delta.total(Category.WIRELESS, "R2") == 3


class TestLocationViewEdges:
    def test_sender_mss_outside_view_delivers_locally_only(self):
        # A member that just arrived in a fresh cell sends before the
        # coordinator update lands: its MSS has no view copy yet.
        sim = make_sim(n_mss=6, n_mh=3, placement="round_robin",
                       transit_time=0.1)
        group = LocationViewGroup(sim.network, sim.mh_ids)
        sim.mh(0).move_to("mss-5")
        # No drain: the view update is still in flight when mh-0 sends.
        sim.run(until=0.5)
        assert sim.mh(0).current_mss_id == "mss-5"
        group.send("mh-0", "early")
        sim.drain()
        # Conservation holds regardless of what the race delivered.
        expected = group.stats.messages * 2
        assert group.stats.deliveries + group.stats.missed == expected

    def test_stale_incremental_to_departed_mss_is_ignored(self):
        sim = make_sim(n_mss=6, n_mh=3, placement="round_robin")
        group = LocationViewGroup(sim.network, sim.mh_ids)
        # mss-2 leaves the view when its only member departs...
        sim.mh(2).move_to("mss-4")
        sim.drain()
        assert "mss-2" not in group.view_copies
        # ...and a later unrelated update must not resurrect its copy.
        sim.mh(1).move_to("mss-5")
        sim.drain()
        assert "mss-2" not in group.view_copies

    def test_coordinator_cell_hosts_members(self):
        sim = make_sim(n_mss=4, n_mh=4, placement="single_cell")
        group = LocationViewGroup(sim.network, sim.mh_ids)
        assert group.coordinator_mss_id == "mss-0"
        assert group.coordinator_view() == {"mss-0"}
        group.send("mh-0", "from-coordinator-cell")
        sim.drain()
        assert len(group.deliveries_of("from-coordinator-cell")) == 3
        # The only member cell moves away entirely.
        for i in range(4):
            sim.mh(i).move_to("mss-2")
            sim.drain()
        assert group.coordinator_view() == {"mss-2"}
        # The coordinator keeps its (authoritative) copy.
        assert "mss-0" in group.view_copies


class TestMulticastEdges:
    def test_submit_from_sequencer_cell_skips_relay(self):
        sim = make_sim(n_mss=4, n_mh=2, placement="single_cell")
        multicast = ExactlyOnceMulticast(sim.network, sim.mh_ids)
        assert multicast.sequencer_mss_id == "mss-0"
        before = sim.metrics.snapshot()
        multicast.send("mh-0", "local-submit")
        sim.drain()
        delta = sim.metrics.since(before)
        # Flood to 3 other MSSs + prune broadcast to the same 3 once
        # both members acked (acks themselves are sequencer-local and
        # free).  No submit relay.
        assert delta.total(Category.FIXED, "eom") == 6

    def test_single_member_group(self):
        sim = make_sim(n_mss=3, n_mh=1)
        multicast = ExactlyOnceMulticast(sim.network, ["mh-0"])
        multicast.send("mh-0", "solo")
        sim.drain()
        assert multicast.delivered_seqs("mh-0") == [1]
        assert all(
            multicast.buffer_size(m) == 0 for m in sim.mss_ids
        )

    def test_rapid_double_move_state_chases_member(self):
        # The stranded-counter race: two quick moves outrun the first
        # handoff; the counter must chase the member.
        sim = make_sim(n_mss=5, n_mh=2, transit_time=0.1,
                       fixed_latency=5.0, wireless_latency=0.05)
        multicast = ExactlyOnceMulticast(sim.network, sim.mh_ids)
        multicast.send("mh-0", "one")
        sim.drain()
        sim.mh(1).move_to("mss-3")
        sim.run(until=sim.now + 0.3)  # joined; handoff still in flight
        assert sim.mh(1).current_mss_id == "mss-3"
        sim.mh(1).move_to("mss-4")
        sim.drain()
        multicast.send("mh-0", "two")
        sim.drain()
        assert multicast.delivered_seqs("mh-1") == [1, 2]
