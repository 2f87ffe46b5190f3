"""Tests for the Simulation facade."""

from __future__ import annotations

import pytest

from repro import CostModel, Simulation
from repro.errors import ConfigurationError
from repro.net.search import BroadcastSearch, HomeAgentSearch


def test_builds_named_hosts():
    sim = Simulation(n_mss=3, n_mh=5)
    assert sim.mss_ids == ["mss-0", "mss-1", "mss-2"]
    assert sim.mh_ids == ["mh-0", "mh-1", "mh-2", "mh-3", "mh-4"]
    assert sim.mss_id(1) == "mss-1"
    assert sim.mh_id(4) == "mh-4"


def test_round_robin_placement():
    sim = Simulation(n_mss=3, n_mh=5, placement="round_robin")
    assert sim.mh(0).current_mss_id == "mss-0"
    assert sim.mh(3).current_mss_id == "mss-0"
    assert sim.mh(4).current_mss_id == "mss-1"


def test_single_cell_placement():
    sim = Simulation(n_mss=3, n_mh=4, placement="single_cell")
    for i in range(4):
        assert sim.mh(i).current_mss_id == "mss-0"


def test_explicit_placement_list():
    sim = Simulation(n_mss=4, n_mh=3, placement=[2, 0, 3])
    assert [sim.mh(i).current_mss_id for i in range(3)] == [
        "mss-2", "mss-0", "mss-3"
    ]


def test_callable_placement():
    sim = Simulation(n_mss=4, n_mh=4, placement=lambda i, m: m - 1 - i)
    assert sim.mh(0).current_mss_id == "mss-3"


def test_random_placement_is_seeded():
    cells_a = [
        Simulation(n_mss=5, n_mh=10, seed=3, placement="random")
        .mh(i).current_mss_id
        for i in range(10)
    ]
    cells_b = [
        Simulation(n_mss=5, n_mh=10, seed=3, placement="random")
        .mh(i).current_mss_id
        for i in range(10)
    ]
    assert cells_a == cells_b


def test_placement_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=2, n_mh=3, placement=[0, 1])


def test_unknown_placement_rejected():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=2, n_mh=2, placement="diagonal")


def test_search_selection_by_name():
    sim = Simulation(n_mss=2, n_mh=1, search="broadcast")
    assert isinstance(sim.network.search_protocol, BroadcastSearch)
    sim = Simulation(n_mss=2, n_mh=1, search="home-agent")
    assert isinstance(sim.network.search_protocol, HomeAgentSearch)


def test_search_instance_passthrough():
    protocol = BroadcastSearch()
    sim = Simulation(n_mss=2, n_mh=1, search=protocol)
    assert sim.network.search_protocol is protocol


def test_unknown_search_rejected():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=2, n_mh=1, search="psychic")


@pytest.mark.parametrize(
    "kwargs, names",
    [
        ({"monitors": "bogus"}, ("monitors", "True", "Monitor", "'bogus'")),
        ({"search": 42}, ("search", "'abstract'", "SearchProtocol", "42")),
        ({"fault_plan": "x"}, ("fault_plan", "FaultPlan", "'x'")),
        ({"config": "x"}, ("config", "NetworkConfig", "'x'")),
        ({"cost_model": "x"}, ("cost_model", "CostModel", "'x'")),
        ({"n_mss": "2"}, ("n_mss", "int", "'2'")),
    ],
    ids=["monitors", "search", "fault_plan", "config", "cost_model",
         "n_mss"],
)
def test_wrong_typed_argument_rejected_with_located_error(kwargs, names):
    """The error names the argument, the accepted values and the
    offending value instead of dying on an AttributeError deep inside
    the hub / network."""
    with pytest.raises(ConfigurationError) as excinfo:
        Simulation(**{"n_mss": 2, "n_mh": 2, **kwargs})
    for name in names:
        assert name in str(excinfo.value)


def test_needs_at_least_one_mss():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=0, n_mh=1)


def test_cost_helper_uses_cost_model():
    model = CostModel(c_fixed=2.0, c_wireless=3.0, c_search=4.0)
    sim = Simulation(n_mss=2, n_mh=2, cost_model=model)
    sim.mh(0).move_to("mss-1")
    sim.drain()
    # leave + join (2 wireless) plus the handoff request/reply between
    # the new and previous MSSs (2 fixed), all under the mobility scope.
    assert sim.cost("mobility") == 2 * 3.0 + 2 * 2.0


def test_now_tracks_scheduler():
    sim = Simulation(n_mss=2, n_mh=0)
    sim.run(until=12.5)
    assert sim.now == 12.5


def test_same_seed_same_run():
    def run(seed):
        import random
        from repro.mobility import UniformMobility
        sim = Simulation(n_mss=4, n_mh=6, seed=seed)
        model = UniformMobility(sim.network, sim.mh_ids, 0.2,
                                rng=random.Random(seed))
        sim.run(until=100.0)
        model.stop()
        sim.drain()
        return (
            [sim.mh(i).current_mss_id for i in range(6)],
            sim.metrics.report(),
        )

    assert run(11) == run(11)
