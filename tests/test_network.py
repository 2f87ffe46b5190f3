"""Integration tests for the network: FIFO, loss, search, delivery."""

from __future__ import annotations

import pytest

from repro import Category, NotConnectedError
from repro.net import NetworkConfig, UniformLatency
from repro.net.messages import Message

from conftest import make_sim


def fixed_msg(src, dst, kind="test.ping", payload=None, scope="test"):
    return Message(kind=kind, src=src, dst=dst, payload=payload, scope=scope)


class TestFixedNetwork:
    def test_delivery_between_mss(self):
        sim = make_sim()
        got = []
        sim.mss(1).register_handler("test.ping", got.append)
        sim.network.send_fixed(fixed_msg("mss-0", "mss-1", payload=42))
        sim.drain()
        assert len(got) == 1
        assert got[0].payload == 42

    def test_fixed_message_counted_once(self):
        sim = make_sim()
        sim.mss(1).register_handler("test.ping", lambda m: None)
        sim.network.send_fixed(fixed_msg("mss-0", "mss-1"))
        sim.drain()
        assert sim.metrics.total(Category.FIXED, "test") == 1

    def test_self_send_costs_nothing(self):
        sim = make_sim()
        got = []
        sim.mss(0).register_handler("test.ping", got.append)
        sim.network.send_fixed(fixed_msg("mss-0", "mss-0"))
        sim.drain()
        assert len(got) == 1
        assert sim.metrics.total(Category.FIXED) == 0

    def test_fifo_under_random_latency(self):
        import repro
        sim = repro.Simulation(
            n_mss=2,
            n_mh=0,
            seed=5,
            config=NetworkConfig(fixed_latency=UniformLatency(0.1, 10.0)),
        )
        got = []
        sim.mss(1).register_handler(
            "test.seq", lambda m: got.append(m.payload)
        )
        for i in range(50):
            sim.network.send_fixed(
                fixed_msg("mss-0", "mss-1", kind="test.seq", payload=i)
            )
        sim.drain()
        assert got == list(range(50))


class TestWirelessCell:
    def test_downlink_delivery_to_local_mh(self):
        sim = make_sim()
        got = []
        mh = sim.mh(0)  # round robin: mh-0 in mss-0
        mh.register_handler("test.down", got.append)
        sim.network.send_wireless_down(
            "mss-0", "mh-0", fixed_msg("mss-0", "mh-0", kind="test.down")
        )
        sim.drain()
        assert len(got) == 1
        assert sim.metrics.total(Category.WIRELESS, "test") == 1
        assert sim.metrics.energy("mh-0") == 1

    def test_downlink_to_non_local_mh_rejected(self):
        sim = make_sim()
        with pytest.raises(NotConnectedError):
            sim.network.send_wireless_down(
                "mss-0", "mh-1",
                fixed_msg("mss-0", "mh-1", kind="test.down"),
            )

    def test_uplink_delivery(self):
        sim = make_sim()
        got = []
        sim.mss(0).register_handler("test.up", got.append)
        sim.mh(0).send_to_mss("test.up", "hello", "test")
        sim.drain()
        assert got[0].payload == "hello"
        assert sim.metrics.energy("mh-0") == 1

    def test_uplink_requires_connection(self):
        sim = make_sim()
        sim.mh(0).move_to("mss-1")  # now in transit
        with pytest.raises(NotConnectedError):
            sim.mh(0).send_to_mss("test.up", None, "test")
        sim.drain()

    def test_downlink_prefix_loss_on_leave(self):
        # Send a burst of downlink messages, then have the MH leave
        # while some are in flight: it must receive a strict prefix and
        # the leave(r) must carry the last received sequence number.
        sim = make_sim()
        received = []
        mh = sim.mh(0)
        mh.register_handler("test.burst", lambda m: received.append(
            m.payload))
        for i in range(10):
            sim.network.send_wireless_down(
                "mss-0", "mh-0",
                fixed_msg("mss-0", "mh-0", kind="test.burst", payload=i),
            )
        # Leave before any delivery completes (wireless latency 0.5).
        mh.move_to("mss-1")
        sim.drain()
        assert received == []
        assert sim.network.lost_wireless_messages == 10

    def test_downlink_seq_numbers_reported_in_leave(self):
        sim = make_sim()
        mh = sim.mh(0)
        mh.register_handler("test.one", lambda m: None)
        sim.network.send_wireless_down(
            "mss-0", "mh-0", fixed_msg("mss-0", "mh-0", kind="test.one")
        )
        sim.drain()
        assert mh.last_received_seq == 1
        mh.move_to("mss-1")
        sim.drain()
        # Sequence resets in the new cell.
        assert mh.last_received_seq == 0


class TestSendToMh:
    def test_local_delivery_needs_no_search(self):
        sim = make_sim()
        got = []
        sim.mh(0).register_handler("test.msg", got.append)
        sim.network.send_to_mh(
            "mss-0", "mh-0", fixed_msg("mss-0", "mh-0", kind="test.msg")
        )
        sim.drain()
        assert len(got) == 1
        assert sim.metrics.total(Category.SEARCH) == 0

    def test_remote_delivery_incurs_one_search(self):
        sim = make_sim()
        got = []
        sim.mh(1).register_handler("test.msg", got.append)  # in mss-1
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg")
        )
        sim.drain()
        assert len(got) == 1
        assert sim.metrics.total(Category.SEARCH, "test") == 1

    def test_delivery_survives_move_during_flight(self):
        sim = make_sim()
        got = []
        sim.mh(1).register_handler("test.msg", got.append)
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg")
        )
        sim.mh(1).move_to("mss-3")
        sim.drain()
        assert len(got) == 1

    def test_delivery_to_mh_in_transit_waits_for_join(self):
        sim = make_sim()
        got = []
        sim.mh(1).register_handler("test.msg", got.append)
        sim.mh(1).move_to("mss-2")
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg")
        )
        sim.drain()
        assert len(got) == 1
        assert sim.mh(1).current_mss_id == "mss-2"

    def test_disconnected_mh_reports_status(self):
        sim = make_sim()
        outcomes = []
        sim.mh(1).register_handler("test.msg", lambda m: None)
        sim.mh(1).disconnect()
        sim.drain()
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg"),
            on_disconnected=outcomes.append,
        )
        sim.drain()
        assert len(outcomes) == 1
        assert outcomes[0].disconnected
        assert outcomes[0].mss_id == "mss-1"
        # The notification from the disconnect-cell MSS is one fixed msg.
        assert sim.metrics.total(Category.FIXED, "test") == 1

    def test_on_delivered_callback_fires(self):
        sim = make_sim()
        delivered = []
        sim.mh(1).register_handler("test.msg", lambda m: None)
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg"),
            on_delivered=delivered.append,
        )
        sim.drain()
        assert len(delivered) == 1


class TestSearchProtocols:
    def test_broadcast_search_counts_probes(self):
        sim = make_sim(search="broadcast")
        got = []
        sim.mh(1).register_handler("test.msg", got.append)
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg")
        )
        sim.drain()
        assert len(got) == 1
        # M-1 queries + 1 reply + 1 forward = M+1 probe messages.
        assert sim.metrics.total(Category.SEARCH_PROBE, "test") == 5
        assert sim.metrics.total(Category.SEARCH) == 0

    def test_home_agent_search_constant_probes(self):
        sim = make_sim(search="home-agent")
        got = []
        sim.mh(1).register_handler("test.msg", got.append)
        sim.network.send_to_mh(
            "mss-0", "mh-1", fixed_msg("mss-0", "mh-1", kind="test.msg")
        )
        sim.drain()
        assert len(got) == 1
        # query + reply + forward = 3, independent of M.
        assert sim.metrics.total(Category.SEARCH_PROBE, "test") == 3

    def test_home_agent_maintenance_traffic_on_moves(self):
        sim = make_sim(search="home-agent")
        before = sim.metrics.total(Category.FIXED, "search-maintenance")
        sim.mh(0).move_to("mss-2")
        sim.drain()
        after = sim.metrics.total(Category.FIXED, "search-maintenance")
        # mh-0's home is mss-1, so its join at mss-2 informs the home.
        assert (before, after) == (6, 7)
