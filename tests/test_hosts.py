"""Integration tests for the mobility protocol of Section 2."""

from __future__ import annotations

import pytest

from repro import Category, HostState, NotConnectedError
from repro.hosts import HandoffParticipant

from conftest import make_sim


class TestMoves:
    def test_move_updates_cell_membership(self):
        sim = make_sim()
        assert sim.mss(0).is_local("mh-0")
        sim.mh(0).move_to("mss-2")
        sim.drain()
        assert not sim.mss(0).is_local("mh-0")
        assert sim.mss(2).is_local("mh-0")
        assert sim.mh(0).current_mss_id == "mss-2"
        assert sim.mh(0).moves_completed == 1

    def test_move_passes_through_transit_state(self):
        sim = make_sim()
        sim.mh(0).move_to("mss-1")
        assert sim.mh(0).state is HostState.IN_TRANSIT
        assert sim.mh(0).current_mss_id is None
        sim.drain()
        assert sim.mh(0).state is HostState.CONNECTED

    def test_move_while_in_transit_rejected(self):
        sim = make_sim()
        sim.mh(0).move_to("mss-1")
        with pytest.raises(NotConnectedError):
            sim.mh(0).move_to("mss-2")
        sim.drain()

    def test_move_messages_are_mobility_scoped(self):
        sim = make_sim()
        sim.mh(0).move_to("mss-1")
        sim.drain()
        # leave + join are wireless messages under the mobility scope.
        assert sim.metrics.total(Category.WIRELESS, "mobility") == 2

    def test_session_increments_per_attachment(self):
        sim = make_sim()
        assert sim.mh(0).session == 1
        sim.mh(0).move_to("mss-1")
        sim.drain()
        assert sim.mh(0).session == 2

    def test_attach_initial_only_once(self):
        sim = make_sim()
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            sim.mh(0).attach_initial("mss-1")


class TestHandoff:
    def test_handoff_transfers_participant_state(self):
        sim = make_sim()

        class Tracker(HandoffParticipant):
            name = "tracker"

            def __init__(self):
                self.store = {}

            def handoff_state(self, mh_id):
                return self.store.pop(mh_id, None)

            def install_handoff_state(self, mh_id, state):
                self.store[mh_id] = state

        trackers = {}
        for i in range(sim.n_mss):
            tracker = Tracker()
            trackers[sim.mss_id(i)] = tracker
            sim.mss(i).add_handoff_participant(tracker)

        trackers["mss-0"].store["mh-0"] = {"tokens": 3}
        sim.mh(0).move_to("mss-2")
        sim.drain()
        assert trackers["mss-2"].store.get("mh-0") == {"tokens": 3}
        assert "mh-0" not in trackers["mss-0"].store

    def test_join_listener_sees_previous_mss(self):
        sim = make_sim()
        seen = []
        sim.mss(2).add_join_listener(
            lambda mh_id, prev: seen.append((mh_id, prev))
        )
        sim.mh(0).move_to("mss-2")
        sim.drain()
        assert seen == [("mh-0", "mss-0")]


class TestDisconnection:
    def test_disconnect_sets_flag_at_local_mss(self):
        sim = make_sim()
        sim.mh(0).disconnect()
        sim.drain()
        assert sim.mh(0).state is HostState.DISCONNECTED
        assert not sim.mss(0).is_local("mh-0")
        assert "mh-0" in sim.mss(0).disconnected_mhs

    def test_reconnect_with_prev_clears_flag(self):
        sim = make_sim()
        sim.mh(0).disconnect()
        sim.drain()
        sim.mh(0).reconnect("mss-3")
        sim.drain()
        assert sim.mh(0).current_mss_id == "mss-3"
        assert sim.mss(3).is_local("mh-0")
        assert "mh-0" not in sim.mss(0).disconnected_mhs

    def test_reconnect_same_cell_clears_flag_locally(self):
        sim = make_sim()
        sim.mh(0).disconnect()
        sim.drain()
        before = sim.metrics.total(Category.FIXED, "mobility")
        sim.mh(0).reconnect("mss-0")
        sim.drain()
        assert "mh-0" not in sim.mss(0).disconnected_mhs
        # No fixed traffic needed: the flag was local.
        assert sim.metrics.total(Category.FIXED, "mobility") == before

    def test_reconnect_without_prev_queries_all_mss(self):
        sim = make_sim()
        sim.mh(0).disconnect()
        sim.drain()
        before = sim.metrics.total(Category.FIXED, "mobility")
        sim.mh(0).reconnect("mss-2", supply_prev=False)
        sim.drain()
        delta = sim.metrics.total(Category.FIXED, "mobility") - before
        # M-1 queries + 1 reply + handoff request/reply.
        assert delta == (sim.n_mss - 1) + 1 + 2
        assert "mh-0" not in sim.mss(0).disconnected_mhs

    def test_disconnect_requires_connection(self):
        sim = make_sim()
        sim.mh(0).disconnect()
        sim.drain()
        with pytest.raises(NotConnectedError):
            sim.mh(0).disconnect()

    def test_reconnect_requires_disconnection(self):
        sim = make_sim()
        with pytest.raises(NotConnectedError):
            sim.mh(0).reconnect("mss-1")


class TestDozeMode:
    def test_delivery_to_dozing_mh_counts_interruption(self):
        sim = make_sim()
        sim.mh(0).register_handler("test.msg", lambda m: None)
        sim.mh(0).doze()
        from repro.net.messages import Message
        sim.network.send_wireless_down(
            "mss-0", "mh-0",
            Message(kind="test.msg", src="mss-0", dst="mh-0",
                    scope="test"),
        )
        sim.drain()
        assert sim.mh(0).doze_interruptions == 1

    def test_awake_mh_not_interrupted(self):
        sim = make_sim()
        sim.mh(0).register_handler("test.msg", lambda m: None)
        from repro.net.messages import Message
        sim.network.send_wireless_down(
            "mss-0", "mh-0",
            Message(kind="test.msg", src="mss-0", dst="mh-0",
                    scope="test"),
        )
        sim.drain()
        assert sim.mh(0).doze_interruptions == 0

    def test_wake_resets_doze(self):
        sim = make_sim()
        sim.mh(0).doze()
        sim.mh(0).wake()
        assert not sim.mh(0).dozing


class TestDispatch:
    def test_unknown_kind_raises(self):
        sim = make_sim()
        from repro.errors import ProtocolError
        from repro.net.messages import Message
        with pytest.raises(ProtocolError):
            sim.mss(0).handle_message(
                Message(kind="nope", src="x", dst="mss-0")
            )

    def test_duplicate_handler_rejected(self):
        sim = make_sim()
        from repro.errors import SimulationError
        sim.mss(0).register_handler("k", lambda m: None)
        with pytest.raises(SimulationError):
            sim.mss(0).register_handler("k", lambda m: None)

    def test_unregister_allows_reregistration(self):
        sim = make_sim()
        sim.mss(0).register_handler("k", lambda m: None)
        sim.mss(0).unregister_handler("k")
        sim.mss(0).register_handler("k", lambda m: None)


class TestOneFrameReceive:
    """``Host.handle_message`` is the single frame between the scheduler
    and the handler; these pin its three refusals and its place as the
    one counting site (each kills the mutant deleting that line)."""

    @staticmethod
    def _ping_in_flight(handled, **sim_kwargs):
        from repro import Simulation
        sim = Simulation(n_mss=3, n_mh=0, seed=1, **sim_kwargs)
        sim.mss(1).register_handler("t.ping", handled.append)
        sim.mss(0).send_fixed("mss-1", "t.ping", "x", "t")
        return sim

    def test_arrival_at_crashed_mss_runs_no_handler(self):
        handled = []
        sim = self._ping_in_flight(handled)
        sim.mss(1).crashed = True  # goes down before the ping lands
        sim.drain()
        assert handled == []
        assert sim.metrics.fault_total() == 1
        assert sim.metrics.fault_total("msg.to_crashed_mss") == 1
        sim.mss(1).crashed = False
        sim.mss(0).send_fixed("mss-1", "t.ping", "y", "t")
        sim.drain()
        assert [m.payload for m in handled] == ["y"]
        assert sim.metrics.fault_total() == 1

    def test_crashed_arrival_is_traced_as_a_drop_of_that_send(self):
        handled = []
        sim = self._ping_in_flight(handled, trace=True)
        sim.mss(1).crashed = True
        sim.drain()
        assert handled == []
        (send,) = sim.tracer.by_type("send.fixed")
        (drop,) = sim.tracer.by_type("fault.drop")
        assert drop.parent_id == send.id
        assert (drop.src, drop.dst, drop.kind, drop.scope) == (
            "mss-0", "mss-1", "t.ping", "t")
        assert drop.detail == {"reason": "msg.to_crashed_mss"}
        assert sim.tracer.by_type("recv") == []

    def test_dozing_mh_is_interrupted_once_and_still_served(self):
        from repro.net.messages import Message
        sim = make_sim()
        handled = []
        sim.mh(0).register_handler("t.msg", handled.append)
        sim.mh(0).doze()
        sim.network.send_wireless_down(
            "mss-0", "mh-0", Message("t.msg", "mss-0", "mh-0", "x", "t"))
        sim.drain()
        assert sim.mh(0).doze_interruptions == 1
        assert [m.payload for m in handled] == ["x"]

    def test_unknown_kind_names_host_kind_and_sender(self):
        from repro.errors import ProtocolError
        from repro.net.messages import Message
        sim = make_sim()
        for host in (sim.mss(0), sim.mh(0)):
            with pytest.raises(ProtocolError) as raised:
                host.handle_message(Message("nope", "mss-3", host.host_id))
            text = str(raised.value)
            assert host.host_id in text and "'nope'" in text
            assert "mss-3" in text

    def test_stations_inherit_the_one_dispatch_frame(self):
        from repro.hosts import MobileSupportStation
        from repro.hosts.base import Host
        assert MobileSupportStation.handle_message is Host.handle_message
