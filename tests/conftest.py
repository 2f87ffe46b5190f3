"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import CostModel, CriticalResource, NetworkConfig, Simulation
from repro.net import ConstantLatency
from repro.scenario import builtin_registry


def pytest_generate_tests(metafunc) -> None:
    """Parametrize any test taking ``scenario_spec`` over the builtin
    scenario pack, one test id per scenario name
    (tests/test_scenario_pack.py)."""
    if "scenario_spec" in metafunc.fixturenames:
        specs = builtin_registry().specs()
        metafunc.parametrize(
            "scenario_spec", specs, ids=[spec.name for spec in specs]
        )


@pytest.fixture
def scenario_seed() -> int:
    """Seed for scenario runs; ``REPRO_CHAOS_SEED`` overrides, so the
    CI chaos seed sweeps cover the pack too."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def make_sim(
    n_mss: int = 4,
    n_mh: int = 8,
    seed: int = 1,
    placement: str = "round_robin",
    search: str = "abstract",
    fixed_latency: float = 1.0,
    wireless_latency: float = 0.5,
    **config_kwargs,
) -> Simulation:
    """A small deterministic simulation with constant latencies."""
    config = NetworkConfig(
        fixed_latency=ConstantLatency(fixed_latency),
        wireless_latency=ConstantLatency(wireless_latency),
        **config_kwargs,
    )
    return Simulation(
        n_mss=n_mss,
        n_mh=n_mh,
        seed=seed,
        config=config,
        search=search,
        placement=placement,
    )


@pytest.fixture
def sim() -> Simulation:
    return make_sim()


@pytest.fixture
def resource(sim) -> CriticalResource:
    return CriticalResource(sim.scheduler)


@pytest.fixture
def costs() -> CostModel:
    return CostModel(c_fixed=1.0, c_wireless=5.0, c_search=10.0)
