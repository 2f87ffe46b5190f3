"""The scenario platform itself: loader validation, registry, runner.

The pack's certification lives in test_scenario_pack.py; these tests
pin the platform's contracts -- that malformed specs fail with located
errors, that the registry answers tag queries, that the runner's
expectation engine actually fails bad runs, and that the CLI wires it
all together.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    ScenarioRegistry,
    builtin_registry,
    load_spec,
    run_scenario,
)


def minimal(**overrides):
    data = {
        "name": "t",
        "duration": 60.0,
        "workload": {"kind": "mutex", "algorithm": "L2",
                     "request_rate": 0.05},
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# Loader validation: every error names the scenario and the bad key.
# ----------------------------------------------------------------------


def test_load_spec_fills_defaults():
    spec = load_spec(minimal())
    assert spec.n_mss == 4 and spec.n_mh == 8
    assert spec.workload["cs_duration"] == 1.0
    assert spec.monitors == {} and spec.expect == {}


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"name": None}, "nonempty string 'name'"),
        ({"bogus": 1}, "unknown keys ['bogus']"),
        ({"n_mss": 0}, "n_mss must be >= 1"),
        ({"duration": -5}, "duration"),
        ({"tags": "chaos"}, "tags must be a list"),
        ({"workload": {"kind": "nope"}}, "workload.kind"),
        ({"workload": {"kind": "mutex", "algorithm": "L9"}},
         "workload.algorithm"),
        ({"workload": {"kind": "mutex", "algorithm": "L1",
                       "request_rate": 0.1}},
         "not supported for L1"),
        ({"workload": {"kind": "mutex", "malicious_mhs": [0]}},
         "requires an R2-family"),
        ({"workload": {"kind": "groups", "group_size": 1}},
         "group_size"),
        ({"mobility": {"kind": "warp", "rate": 1.0}}, "mobility.kind"),
        ({"mobility": {"kind": "uniform"}}, "mobility.rate"),
        ({"disconnects": {"rate": 0.1}}, "disconnects.downtime"),
        ({"events": [{"kind": "teleport", "at": 1.0}]},
         "events[0].kind"),
        ({"events": [{"kind": "move", "at": 1.0, "mh": 99, "cell": 0}]},
         "events[0].mh 99 out of range"),
        ({"events": [{"kind": "converge", "at": 1.0, "cell": 9}]},
         "events[0].cell 9 out of range"),
        ({"events": [{"kind": "set_rate", "at": 1.0}]},
         "set_rate needs"),
        ({"monitors": {"request_deadline": "soon"}},
         "monitors.request_deadline"),
        ({"expect": {"min_happiness": 3}}, "expect has unknown keys"),
        ({"faults": {"link_faults": [{"drop": 2.0}]}}, "faults"),
    ],
)
def test_load_spec_rejects_with_located_errors(mutation, fragment):
    with pytest.raises(ConfigurationError) as err:
        load_spec(minimal(**mutation))
    assert fragment in str(err.value)


def test_request_events_need_a_mutex_workload():
    with pytest.raises(ConfigurationError) as err:
        load_spec(minimal(
            workload={"kind": "none"},
            events=[{"kind": "request", "at": 5.0, "mh": 0}],
        ))
    assert "'request' events need a mutex workload" in str(err.value)


def test_l2_under_an_mss_crash_is_refused_at_load():
    """The quiet baseline plus one recoverable MSS crash used to load,
    then wedge at seed 42 (9 of 17 requests served, the rest
    ``liveness.request_unserved``); now the spec does not load."""
    data = builtin_registry().get("quiet_baseline").to_dict()
    data["seed"] = 42
    data["faults"] = {"crashes": [
        {"mss_id": "mss-1", "at": 40.0, "recover_at": 80.0}]}
    with pytest.raises(ConfigurationError) as err:
        load_spec(data)
    message = str(err.value)
    for fragment in ("'quiet_baseline'", "L2", "mss-1", "t=40.0",
                     "recover_at=80.0"):
        assert fragment in message
    # MH-only crash plans and other algorithms still load
    data["faults"] = {"mh_crashes": [{"mh_id": "mh-1", "at": 40.0}]}
    load_spec(data)
    data["faults"] = {"crashes": [{"mss_id": "mss-1", "at": 40.0}]}
    data["workload"]["algorithm"] = "R2"
    load_spec(data)


def test_fault_errors_carry_the_scenario_name():
    with pytest.raises(ConfigurationError) as err:
        load_spec(minimal(
            faults={"crashes": [{"mss_id": "mss-0", "at": 50.0,
                                 "recover_at": 10.0}]},
        ))
    message = str(err.value)
    assert "scenario 't'" in message
    assert "inverted or empty" in message


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_tag_queries_and_misses():
    registry = ScenarioRegistry([
        load_spec(minimal(name="a", tags=["chaos"])),
        load_spec(minimal(name="b", tags=["chaos", "crash"])),
        load_spec(minimal(name="c")),
    ])
    assert registry.names() == ["a", "b", "c"]
    assert registry.names("chaos") == ["a", "b"]
    assert registry.tags() == ["chaos", "crash"]
    assert "a" in registry and "z" not in registry
    with pytest.raises(KeyError) as err:
        registry.get("z")
    assert "options: a, b, c" in str(err.value)


def test_registry_rejects_duplicate_names():
    registry = ScenarioRegistry([load_spec(minimal(name="a"))])
    with pytest.raises(ConfigurationError, match="duplicate"):
        registry.register(load_spec(minimal(name="a")))


def test_builtin_registry_is_cached():
    assert builtin_registry() is builtin_registry()


# ----------------------------------------------------------------------
# Runner: scheduled events, expectations, determinism
# ----------------------------------------------------------------------


def test_scheduled_requests_and_moves_run():
    spec = load_spec(minimal(
        n_mh=4,
        workload={"kind": "mutex", "algorithm": "L2"},
        events=[
            {"kind": "request", "at": 5.0, "mh": 0},
            {"kind": "request", "at": 10.0, "mh": 1},
            {"kind": "move", "at": 7.0, "mh": 0, "cell": 2},
        ],
        expect={"min_accesses": 2, "all_requests_served": True},
    ))
    result = run_scenario(spec, seed=3)
    assert result.ok, result.failures
    # Two scheduled requests plus the Poisson arrivals all completed.
    assert result.report["workload"]["completed"] >= 2


def test_failed_expectation_fails_the_run():
    spec = load_spec(minimal(expect={"min_accesses": 10_000}))
    result = run_scenario(spec, seed=3)
    assert not result.ok
    assert any("region accesses" in f for f in result.failures)
    # A missed expectation is not an invariant violation.
    assert result.report["monitors"]["ok"]


def test_min_faults_expectation_fails_without_faults():
    spec = load_spec(minimal(
        expect={"min_faults": {"mss.crash": 1}},
    ))
    result = run_scenario(spec, seed=3)
    assert not result.ok
    assert any("mss.crash" in f for f in result.failures)


def test_runs_are_deterministic_per_seed():
    spec = builtin_registry().get("partition_heal_storm")
    a = run_scenario(spec, seed=11)
    b = run_scenario(spec, seed=11)
    for key in ("messages", "cost", "faults", "workload",
                "final_time"):
        assert a.report[key] == b.report[key], key
    assert a.events == b.events


def test_mass_disconnect_event_reconnects_everyone():
    # Fault-tolerant R2 (plan installed): a request pending across the
    # tunnel is deferred and served after the reconnect wave, so the
    # workload balances exactly -- the pack's tunnel scenarios rely on
    # this same contract.
    spec = load_spec(minimal(
        duration=120.0,
        workload={"kind": "mutex", "algorithm": "R2'",
                  "request_rate": 0.05, "token_timeout": 40.0},
        faults={"seed": 5},
        events=[{"kind": "mass_disconnect", "at": 30.0,
                 "fraction": 1.0, "downtime": 20.0,
                 "reconnect_spread": 5.0}],
    ))
    result = run_scenario(spec, seed=5)
    stats = result.report["workload"]
    assert stats["completed"] == stats["issued"]
    assert result.ok, result.failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_scenarios_list(capsys):
    from repro.cli import main

    lines = []
    assert main(["scenarios", "--list", "--tag", "adversarial"],
                emit=lines.append) == 0
    assert any("adversarial_r2pp" in line for line in lines)


def test_cli_scenarios_run_with_reports(tmp_path):
    from repro.cli import main

    lines = []
    code = main(
        ["scenarios", "--scenario", "quiet_baseline",
         "--seeds", "7,19", "--report-dir", str(tmp_path)],
        emit=lines.append,
    )
    assert code == 0
    out = "\n".join(lines)
    assert "certified" in out
    for seed in (7, 19):
        path = tmp_path / f"quiet_baseline-seed{seed}.json"
        report = json.loads(path.read_text())
        assert report["seed"] == seed
        assert report["monitors"]["ok"]


def test_cli_scenarios_runs_a_spec_file(tmp_path):
    from repro.cli import main

    path = tmp_path / "my.json"
    path.write_text(json.dumps(minimal(name="my")))
    lines = []
    assert main(["scenarios", "--file", str(path)],
                emit=lines.append) == 0
    assert any("my" in line for line in lines)


def test_cli_scenarios_rejects_unknowns():
    from repro.cli import main

    with pytest.raises(SystemExit, match="unknown scenario"):
        main(["scenarios", "--scenario", "nope"], emit=lambda _: None)
    with pytest.raises(SystemExit, match="no scenario carries tag"):
        main(["scenarios", "--tag", "nope"], emit=lambda _: None)
    with pytest.raises(SystemExit, match="comma-separated"):
        main(["scenarios", "--seeds", "x,y"], emit=lambda _: None)
