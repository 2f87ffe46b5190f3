"""Tests for the three group location management strategies."""

from __future__ import annotations

import pytest

from repro import Category
from repro.analysis import formulas
from repro.errors import ConfigurationError
from repro.groups import (
    AlwaysInformGroup,
    LocationViewGroup,
    PureSearchGroup,
)

from conftest import make_sim


def spread_sim(g=4, n_mss=6):
    """Members mh-0..mh-{g-1}, one per cell -- every copy crosses
    cells, matching the paper's accounting."""
    sim = make_sim(n_mss=n_mss, n_mh=g, placement="round_robin")
    members = sim.mh_ids
    return sim, members


class TestPureSearch:
    def test_message_reaches_all_other_members(self):
        sim, members = spread_sim()
        group = PureSearchGroup(sim.network, members)
        group.send("mh-0", "hello")
        sim.drain()
        assert sorted(group.deliveries_of("hello")) == [
            "mh-1", "mh-2", "mh-3"
        ]

    def test_message_cost_matches_formula(self):
        sim, members = spread_sim(g=5, n_mss=8)
        group = PureSearchGroup(sim.network, members)
        before = sim.metrics.snapshot()
        group.send("mh-0", "x")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == \
            formulas.pure_search_message_cost(5, sim.cost_model)
        assert delta.total(Category.SEARCH, group.scope) == 4

    def test_moves_cost_nothing(self):
        sim, members = spread_sim()
        group = PureSearchGroup(sim.network, members)
        before = sim.metrics.snapshot()
        sim.mh(0).move_to("mss-4")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == 0
        assert group.stats.moves == 1

    def test_finds_moved_member(self):
        sim, members = spread_sim()
        group = PureSearchGroup(sim.network, members)
        sim.mh(2).move_to("mss-5")
        sim.drain()
        group.send("mh-0", "after-move")
        sim.drain()
        assert "mh-2" in group.deliveries_of("after-move")

    def test_disconnected_member_counted_missed(self):
        sim, members = spread_sim()
        group = PureSearchGroup(sim.network, members)
        sim.mh(3).disconnect()
        sim.drain()
        group.send("mh-0", "m")
        sim.drain()
        assert group.stats.missed == 1
        assert sorted(group.deliveries_of("m")) == ["mh-1", "mh-2"]

    def test_non_member_cannot_send(self):
        sim = make_sim(n_mss=4, n_mh=5)
        group = PureSearchGroup(sim.network, sim.mh_ids[:4])
        with pytest.raises(ConfigurationError):
            group.send("mh-4", "nope")

    def test_group_needs_two_members(self):
        sim = make_sim(n_mss=2, n_mh=2)
        with pytest.raises(ConfigurationError):
            PureSearchGroup(sim.network, ["mh-0"])


class TestAlwaysInform:
    def test_message_reaches_all_other_members(self):
        sim, members = spread_sim()
        group = AlwaysInformGroup(sim.network, members)
        group.send("mh-1", "hi")
        sim.drain()
        assert sorted(group.deliveries_of("hi")) == [
            "mh-0", "mh-2", "mh-3"
        ]

    def test_message_cost_matches_formula(self):
        sim, members = spread_sim(g=5, n_mss=8)
        group = AlwaysInformGroup(sim.network, members)
        before = sim.metrics.snapshot()
        group.send("mh-0", "x")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == \
            formulas.always_inform_message_cost(5, sim.cost_model)
        assert delta.total(Category.SEARCH, group.scope) == 0

    def test_move_floods_updates_at_message_cost(self):
        sim, members = spread_sim(g=4, n_mss=6)
        group = AlwaysInformGroup(sim.network, members)
        before = sim.metrics.snapshot()
        sim.mh(0).move_to("mss-4")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == \
            formulas.always_inform_message_cost(4, sim.cost_model)
        assert group.stats.moves == 1

    def test_directories_converge_after_move(self):
        sim, members = spread_sim()
        group = AlwaysInformGroup(sim.network, members)
        sim.mh(2).move_to("mss-5")
        sim.drain()
        for member in members:
            assert group.directories[member]["mh-2"] == "mss-5"

    def test_no_search_after_updates_settle(self):
        sim, members = spread_sim()
        group = AlwaysInformGroup(sim.network, members)
        sim.mh(2).move_to("mss-5")
        sim.drain()
        group.send("mh-0", "settled")
        sim.drain()
        assert group.stale_deliveries == 0
        assert "mh-2" in group.deliveries_of("settled")

    def test_stale_entry_falls_back_to_search(self):
        sim, members = spread_sim()
        group = AlwaysInformGroup(sim.network, members)
        # Send while mh-2's move is still in flight.
        sim.mh(2).move_to("mss-5")
        group.send("mh-0", "racing")
        sim.drain()
        assert "mh-2" in group.deliveries_of("racing")
        assert group.stale_deliveries >= 1

    def test_total_cost_over_run_matches_formula(self):
        sim, members = spread_sim(g=4, n_mss=8)
        group = AlwaysInformGroup(sim.network, members)
        before = sim.metrics.snapshot()
        moves, messages = 0, 0
        for step in range(3):
            sim.mh(step).move_to(f"mss-{4 + step}")
            sim.drain()
            moves += 1
            group.send("mh-3", f"m{step}")
            sim.drain()
            messages += 1
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == \
            formulas.always_inform_total_cost(
                4, moves, messages, sim.cost_model
            )
        assert group.stats.moves == moves
        assert group.stats.messages == messages


class TestLocationView:
    def test_initial_view_covers_member_cells(self):
        sim, members = spread_sim(g=4, n_mss=6)
        group = LocationViewGroup(sim.network, members)
        assert group.coordinator_view() == {
            "mss-0", "mss-1", "mss-2", "mss-3"
        }

    def test_message_reaches_all_other_members(self):
        sim, members = spread_sim()
        group = LocationViewGroup(sim.network, members)
        group.send("mh-0", "lv-hello")
        sim.drain()
        assert sorted(group.deliveries_of("lv-hello")) == [
            "mh-1", "mh-2", "mh-3"
        ]

    def test_message_cost_matches_formula(self):
        sim, members = spread_sim(g=5, n_mss=8)
        group = LocationViewGroup(sim.network, members)
        before = sim.metrics.snapshot()
        group.send("mh-0", "x")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.cost(sim.cost_model, group.scope) == \
            formulas.location_view_message_cost(5, 5, sim.cost_model)

    def test_clustered_group_sends_fewer_static_messages(self):
        # All members in one cell: |LV| = 1, so a group message uses no
        # fixed-network traffic at all.
        sim = make_sim(n_mss=6, n_mh=4, placement="single_cell")
        group = LocationViewGroup(sim.network, sim.mh_ids)
        assert group.view_size() == 1
        before = sim.metrics.snapshot()
        group.send("mh-0", "local")
        sim.drain()
        delta = sim.metrics.since(before)
        assert delta.total(Category.FIXED, group.scope) == 0
        assert sorted(group.deliveries_of("local")) == [
            "mh-1", "mh-2", "mh-3"
        ]

    def test_insignificant_move_does_not_change_view(self):
        # mh-0 moves from mss-0 to mss-1 (inside the view) while mh-4
        # also lives in mss-0, so neither add nor delete is needed.
        sim = make_sim(n_mss=6, n_mh=5, placement="round_robin")
        members = sim.mh_ids  # mh-4 shares mss-0 ... wait: 5 MHs, 6 MSS
        # round robin puts mh-0..mh-4 in mss-0..mss-4; put mh-4 with
        # mh-0 instead:
        sim2 = make_sim(n_mss=6, n_mh=5, placement=[0, 1, 2, 3, 0])
        group = LocationViewGroup(sim2.network, sim2.mh_ids)
        view_before = group.coordinator_view()
        group_scope_before = sim2.metrics.total(
            Category.FIXED, group.scope
        )
        sim2.mh(0).move_to("mss-1")
        sim2.drain()
        assert group.coordinator_view() == view_before
        assert group.stats.significant_moves == 0
        # Only the move notice crossed the static network.
        assert sim2.metrics.total(Category.FIXED, group.scope) == \
            group_scope_before + 1

    def test_move_to_new_cell_adds_to_view(self):
        sim, members = spread_sim(g=3, n_mss=6)
        group = LocationViewGroup(sim.network, members)
        sim.mh(0).move_to("mss-5")
        sim.drain()
        # mss-0 lost its only member, mss-5 gained one: combined change.
        assert group.coordinator_view() == {"mss-1", "mss-2", "mss-5"}
        assert group.stats.significant_moves == 1

    def test_all_copies_converge_after_significant_moves(self):
        sim, members = spread_sim(g=4, n_mss=8)
        group = LocationViewGroup(sim.network, members)
        sim.mh(0).move_to("mss-6")
        sim.drain()
        sim.mh(1).move_to("mss-7")
        sim.drain()
        expected = group.coordinator_view()
        for mss_id in expected:
            assert group.view_copies[mss_id] == expected

    def test_update_cost_within_paper_bound(self):
        sim, members = spread_sim(g=4, n_mss=8)
        group = LocationViewGroup(sim.network, members)
        lv_before = group.view_size()
        before = sim.metrics.snapshot()
        sim.mh(0).move_to("mss-6")  # significant (add + delete)
        sim.drain()
        delta = sim.metrics.since(before)
        bound = formulas.location_view_update_cost_bound(
            lv_before + 1, sim.cost_model
        )
        assert delta.cost(sim.cost_model, group.scope) <= bound

    def test_delivery_after_significant_move(self):
        sim, members = spread_sim()
        group = LocationViewGroup(sim.network, members)
        sim.mh(2).move_to("mss-5")
        sim.drain()
        group.send("mh-0", "post-move")
        sim.drain()
        assert "mh-2" in group.deliveries_of("post-move")

    def test_sender_in_fresh_cell_can_send(self):
        sim, members = spread_sim()
        group = LocationViewGroup(sim.network, members)
        sim.mh(0).move_to("mss-4")
        sim.drain()
        group.send("mh-0", "from-new-cell")
        sim.drain()
        assert sorted(group.deliveries_of("from-new-cell")) == [
            "mh-1", "mh-2", "mh-3"
        ]

    def test_members_spend_no_energy_on_location_updates(self):
        sim, members = spread_sim()
        group = LocationViewGroup(sim.network, members)
        energy_before = {m: sim.metrics.energy(m) for m in members}
        sim.mh(0).move_to("mss-5")
        sim.drain()
        # Only the mobility-protocol leave/join cost energy at mh-0; the
        # view update itself is entirely on the static network.
        for member in members[1:]:
            assert sim.metrics.energy(member) == energy_before[member]

    def test_max_view_size_tracked(self):
        sim, members = spread_sim(g=3, n_mss=8)
        group = LocationViewGroup(sim.network, members)
        assert group.max_view_size == 3
        sim.mh(0).move_to("mss-7")
        sim.drain()
        assert group.max_view_size == 3  # combined add+delete: size kept


class TestLocationViewBounceRaces:
    """Regressions for stale-message races found by seed-sweep fuzzing."""

    def test_stale_move_notice_does_not_wipe_returned_member(self):
        # mh-0 bounces mss-0 -> mss-1 -> mss-0 so fast that the notice
        # for the first departure reaches mss-0 *after* it has come
        # back.  The notice must not wipe the fresh local entry.
        sim = make_sim(n_mss=4, n_mh=3, placement="round_robin",
                       transit_time=0.1, fixed_latency=5.0,
                       wireless_latency=0.05)
        group = LocationViewGroup(sim.network, sim.mh_ids)
        sim.mh(0).move_to("mss-1")
        sim.run(until=sim.now + 0.3)
        sim.mh(0).move_to("mss-0")
        sim.drain()
        assert "mh-0" in group.local_members["mss-0"]
        group.send("mh-1", "after-bounce")
        sim.drain()
        assert "mh-0" in group.deliveries_of("after-bounce")

    def test_coordinator_readding_own_cell_keeps_concurrent_updates(self):
        # When the coordinator's own cell re-enters the view, it must
        # not overwrite its authoritative copy with a stale snapshot.
        sim = make_sim(n_mss=5, n_mh=3, placement=[0, 1, 2])
        group = LocationViewGroup(sim.network, sim.mh_ids)
        assert group.coordinator_mss_id == "mss-0"
        # mh-0 (sole member at the coordinator's cell) leaves: delete.
        sim.mh(0).move_to("mss-3")
        sim.drain()
        assert "mss-0" not in group.coordinator_view()
        # ...and returns: the coordinator cell is re-added.
        sim.mh(0).move_to("mss-0")
        sim.drain()
        view = group.coordinator_view()
        assert view == {"mss-0", "mss-1", "mss-2"}
        for mss_id in view:
            assert group.view_copies[mss_id] == view
