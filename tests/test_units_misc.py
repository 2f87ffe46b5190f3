"""Focused unit tests for small pieces not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    MutualExclusionViolation,
    NotConnectedError,
    ProtocolError,
    ReproError,
    SimulationError,
    UnknownHostError,
)
from repro.groups.base import DeliveryEnvelope, GroupStats
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.messages import Message
from repro.proxy.policy import LocationRegister

from conftest import make_sim


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            SimulationError,
            UnknownHostError,
            NotConnectedError,
            MutualExclusionViolation,
            ProtocolError,
        ):
            assert issubclass(exc, ReproError)

    def test_simulation_errors_are_distinct_from_config_errors(self):
        assert not issubclass(SimulationError, ConfigurationError)
        assert issubclass(UnknownHostError, SimulationError)


class TestLatencyModels:
    def test_constant_latency(self):
        import random
        model = ConstantLatency(2.5)
        assert model(random.Random(1)) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_uniform_in_range(self):
        import random
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(7)
        for _ in range(100):
            assert 1.0 <= model(rng) <= 3.0

    def test_uniform_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)

    def test_reprs(self):
        assert "2.5" in repr(ConstantLatency(2.5))
        assert "1.0" in repr(UniformLatency(1.0, 2.0))


class TestMessages:
    def test_defaults(self):
        message = Message(kind="k", src="a", dst="b")
        assert message.payload is None
        assert message.scope == "default"
        assert message.wireless_seq is None


class TestLocationRegister:
    def test_update_and_get(self):
        register = LocationRegister()
        register.update("mh-0", "mss-1", session=1)
        assert register["mh-0"] == "mss-1"
        assert register.get("mh-0") == "mss-1"
        assert "mh-0" in register

    def test_stale_update_ignored(self):
        register = LocationRegister()
        register.update("mh-0", "mss-2", session=5)
        assert not register.update("mh-0", "mss-1", session=4)
        assert register["mh-0"] == "mss-2"

    def test_equal_session_applies(self):
        # A re-join at the same session (e.g. a local correction) wins.
        register = LocationRegister()
        register.update("mh-0", "mss-1", session=3)
        assert register.update("mh-0", "mss-2", session=3)
        assert register["mh-0"] == "mss-2"

    def test_missing_entry(self):
        register = LocationRegister()
        assert register.get("nope") is None
        assert register.get("nope", "fallback") == "fallback"
        assert "nope" not in register
        with pytest.raises(KeyError):
            register["nope"]


class TestGroupStats:
    def test_ratio_with_no_messages(self):
        stats = GroupStats()
        assert stats.mobility_to_message_ratio == 0.0
        stats.moves = 5
        assert stats.mobility_to_message_ratio == float("inf")

    def test_ratio(self):
        stats = GroupStats(moves=6, messages=3)
        assert stats.mobility_to_message_ratio == 2.0

    def test_significant_fraction(self):
        stats = GroupStats(moves=10, significant_moves=4)
        assert stats.significant_fraction == 0.4
        assert GroupStats().significant_fraction == 0.0


class TestGroupAccounting:
    def build(self):
        from repro.groups import PureSearchGroup
        sim = make_sim(n_mss=4, n_mh=3)
        return sim, PureSearchGroup(sim.network, sim.mh_ids)

    def test_outcome_recorded_once(self):
        sim, group = self.build()
        assert group._record_outcome(1, "mh-1", delivered=True)
        assert not group._record_outcome(1, "mh-1", delivered=True)
        assert not group._record_missed(1, "mh-1")
        assert group.stats.deliveries == 1
        assert group.stats.missed == 0

    def test_provisional_miss_upgrades_to_delivery(self):
        sim, group = self.build()
        group._record_missed_provisionally(1, "mh-1")
        assert group.stats.missed == 1
        assert group._record_outcome(1, "mh-1", delivered=True)
        assert group.stats.missed == 0
        assert group.stats.deliveries == 1
        # A second delivery report is ignored.
        assert not group._record_outcome(1, "mh-1", delivered=True)
        assert group.stats.deliveries == 1

    def test_provisional_then_definitive_miss_stays_single(self):
        sim, group = self.build()
        group._record_missed_provisionally(1, "mh-1")
        assert not group._record_missed(1, "mh-1")
        assert group.stats.missed == 1

    def test_provisional_is_idempotent(self):
        sim, group = self.build()
        group._record_missed_provisionally(1, "mh-1")
        group._record_missed_provisionally(1, "mh-1")
        assert group.stats.missed == 1

    def test_a_duplicate_of_either_outcome_is_ignored(self):
        sim, group = self.build()
        assert group._record_missed(1, "mh-1")
        assert not group._record_missed(1, "mh-1")
        assert not group._record_outcome(1, "mh-1", delivered=True)
        # Another recipient of the same message is its own entry.
        assert group._record_outcome(1, "mh-2", delivered=True)
        assert (group.stats.deliveries, group.stats.missed) == (1, 1)

    def test_a_removed_and_readded_member_keeps_its_bit(self):
        from repro.groups import PureSearchGroup
        sim = make_sim(n_mss=4, n_mh=4)
        group = PureSearchGroup(sim.network, ["mh-0", "mh-1", "mh-2"])
        assert group._record_outcome(1, "mh-2", delivered=True)
        group.remove_member("mh-2")
        group.add_member("mh-3")
        group.add_member("mh-2")
        assert group._bits == {"mh-0": 1, "mh-1": 2, "mh-2": 4, "mh-3": 8}
        # Message 1's outcome for mh-2 survives the round trip ...
        assert not group._record_missed(1, "mh-2")
        # ... and a later message accounts for it afresh.
        assert group._record_missed(2, "mh-2")
        assert group._record_outcome(2, "mh-3", delivered=True)
        assert (group.stats.deliveries, group.stats.missed) == (2, 1)

    def test_a_70_member_group_accounts_past_64_bits(self):
        from repro.groups import PureSearchGroup
        sim = make_sim(n_mss=4, n_mh=70)
        group = PureSearchGroup(sim.network, sim.mh_ids)
        assert group._bits["mh-69"] == 1 << 69
        group.send("mh-69", "hello")
        sim.drain()
        assert sorted(group.deliveries_of("hello")) == sorted(
            sim.mh_ids[:69])
        assert group._accounted == {1: (1 << 69) - 1}
        assert (group.stats.deliveries, group.stats.missed) == (69, 0)
        for mh_id in sim.mh_ids:
            group._record_missed_provisionally(2, mh_id)
        for mh_id in sim.mh_ids[::-1]:
            assert group._record_outcome(2, mh_id, delivered=True)
            assert not group._record_outcome(2, mh_id, delivered=True)
        assert group._accounted[2] == (1 << 70) - 1
        assert group._provisional == {}
        assert (group.stats.deliveries, group.stats.missed) == (139, 0)

    def test_envelope_is_frozen(self):
        envelope = DeliveryEnvelope(1, "x")
        with pytest.raises(Exception):
            envelope.msg_id = 2


class TestNetworkConfigValidation:
    def test_negative_transit_rejected(self):
        from repro.net import NetworkConfig
        with pytest.raises(ConfigurationError):
            NetworkConfig(transit_time=-1.0)

    def test_zero_retry_rejected(self):
        from repro.net import NetworkConfig
        with pytest.raises(ConfigurationError):
            NetworkConfig(search_retry_delay=0.0)

    @pytest.mark.parametrize("field", [
        "transit_time", "search_delay", "search_retry_delay",
        "mh_delivery_max_attempts"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "2"])
    def test_non_number_rejected_at_construction(self, field, value):
        # A NaN transit time used to be accepted and fail only at the
        # first move, as an unlocated "negative delay: nan".
        from repro.net import NetworkConfig
        with pytest.raises(ConfigurationError,
                           match=f"NetworkConfig.{field}"):
            NetworkConfig(**{field: value})

    def test_unbounded_delivery_attempts_accepted(self):
        from repro.net import NetworkConfig
        assert NetworkConfig(
            mh_delivery_max_attempts=None).mh_delivery_max_attempts is None


class TestNetworkRegistration:
    def test_duplicate_mss_rejected(self):
        sim = make_sim(n_mss=2, n_mh=0)
        from repro.hosts import MobileSupportStation
        with pytest.raises(SimulationError):
            sim.network.register_mss(
                MobileSupportStation("mss-0", sim.network)
            )

    def test_mh_id_colliding_with_mss_rejected(self):
        sim = make_sim(n_mss=2, n_mh=0)
        from repro.hosts import MobileHost
        with pytest.raises(SimulationError):
            sim.network.register_mh(MobileHost("mss-0", sim.network))

    def test_unknown_lookups_raise(self):
        sim = make_sim(n_mss=2, n_mh=1)
        with pytest.raises(UnknownHostError):
            sim.network.mss("nope")
        with pytest.raises(UnknownHostError):
            sim.network.mobile_host("nope")
