"""Tests for the perf harness (registry, measurement, comparisons)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.perf import (
    SCENARIOS,
    Scenario,
    check_regressions,
    compare,
    delta_table,
    find_previous_bench,
    load_bench,
    run_scenario,
    scenario_names,
    write_bench,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_has_headline_and_smoke_scenarios():
    assert "scale_m10_n200" in SCENARIOS
    smoke = scenario_names(smoke_only=True)
    assert smoke
    assert all(SCENARIOS[name].smoke for name in smoke)
    assert set(smoke) < set(scenario_names())


def test_registry_descriptions_are_nonempty():
    for scenario in SCENARIOS.values():
        assert scenario.description
        assert callable(scenario.run)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def test_run_scenario_measures_and_repeats():
    calls = []
    scenario = Scenario(
        name="tiny",
        description="deterministic toy",
        run=lambda: calls.append(1) or 42,
    )
    result = run_scenario(scenario, repeats=3)
    assert len(calls) == 3
    assert result.events == 42
    assert result.wall_time_s > 0
    assert result.events_per_sec > 0
    assert result.repeats == 3


def test_run_scenario_rejects_nondeterminism():
    counter = [0]

    def drifting():
        counter[0] += 1
        return counter[0]

    scenario = Scenario(name="drift", description="x", run=drifting)
    with pytest.raises(ConfigurationError, match="nondeterministic"):
        run_scenario(scenario, repeats=2)


def test_run_scenario_rejects_bad_repeats():
    scenario = Scenario(name="t", description="x", run=lambda: 1)
    with pytest.raises(ConfigurationError):
        run_scenario(scenario, repeats=0)


def test_unknown_scenario_name_raises():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        run_scenario("no_such_scenario")


# ----------------------------------------------------------------------
# Records on disk
# ----------------------------------------------------------------------

def _record(calibration, eps_by_name):
    return {
        "schema": 1,
        "calibration_ops_per_sec": calibration,
        "scenarios": {
            name: {"events_per_sec": eps, "events": 100,
                   "wall_time_s": 100 / eps, "peak_rss_kb": None,
                   "repeats": 1}
            for name, eps in eps_by_name.items()
        },
    }


def test_write_load_roundtrip(tmp_path):
    record = _record(1e6, {"a": 5000.0})
    path = str(tmp_path / "BENCH_9.json")
    write_bench(record, path)
    assert load_bench(path) == record


def test_load_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "BENCH_1.json")
    write_bench({"schema": 999, "scenarios": {}}, path)
    with pytest.raises(ConfigurationError, match="schema"):
        load_bench(path)


def test_find_previous_bench_picks_highest(tmp_path):
    assert find_previous_bench(str(tmp_path)) is None
    for n in (2, 10, 4):
        write_bench(_record(1.0, {}), str(tmp_path / f"BENCH_{n}.json"))
    (tmp_path / "BENCH_bogus.json").write_text("{}")
    found = find_previous_bench(str(tmp_path))
    assert found is not None
    assert os.path.basename(found) == "BENCH_10.json"


def test_checked_in_bench_is_loadable_and_improved():
    path = os.path.join(REPO_ROOT, "BENCH_4.json")
    record = load_bench(path)
    headline = record["scenarios"]["scale_m10_n200"]
    assert headline["events"] > 0
    # The record embeds its pre-optimization baseline; the headline
    # scenario must show the >=25% speedup the optimization targeted.
    speedup = record["baseline"]["speedup"]["scale_m10_n200"]
    assert speedup["raw_ratio"] >= 1.25


# ----------------------------------------------------------------------
# Comparison math and the regression gate
# ----------------------------------------------------------------------

def test_compare_raw_and_normalized_ratios():
    baseline = _record(1e6, {"a": 1000.0, "only_base": 5.0})
    # Same machine speed -> normalized tracks raw.
    current = _record(1e6, {"a": 1500.0, "only_cur": 7.0})
    (delta,) = compare(current, baseline)
    assert delta.name == "a"
    assert delta.raw_ratio == pytest.approx(1.5)
    assert delta.normalized_ratio == pytest.approx(1.5)
    assert delta.raw_pct == pytest.approx(50.0)


def test_compare_normalizes_out_machine_speed():
    baseline = _record(1e6, {"a": 1000.0})
    # A machine twice as fast doubles both the calibration and the
    # scenario: normalized says "no change", raw says "2x".
    current = _record(2e6, {"a": 2000.0})
    (delta,) = compare(current, baseline)
    assert delta.raw_ratio == pytest.approx(2.0)
    assert delta.normalized_ratio == pytest.approx(1.0)


def test_check_regressions_flags_slowdowns():
    baseline = _record(1e6, {"fast": 1000.0, "slow": 1000.0})
    current = _record(1e6, {"fast": 990.0, "slow": 600.0})
    deltas = compare(current, baseline)
    failures = check_regressions(deltas, max_regression=0.30)
    assert len(failures) == 1
    assert "slow" in failures[0]
    assert not check_regressions(deltas, max_regression=0.50)


def test_check_regressions_validates_tolerance():
    with pytest.raises(ConfigurationError):
        check_regressions([], max_regression=1.5)


def test_delta_table_renders_all_rows():
    baseline = _record(1e6, {"a": 1000.0, "b": 2000.0})
    current = _record(1e6, {"a": 1100.0, "b": 1500.0})
    table = delta_table(compare(current, baseline))
    assert "a" in table and "b" in table
    assert "+10.0%" in table
    assert "-25.0%" in table


# ----------------------------------------------------------------------
# CLI wrapper
# ----------------------------------------------------------------------

def test_tool_lists_scenarios():
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "perf_harness.py"),
         "--list"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    for name in SCENARIOS:
        assert name in result.stdout
