"""Certification of the shipped scenario pack.

Every scenario in ``repro/scenario/pack`` runs under the full invariant
monitor suite (via the ``scenario_spec`` pytest plugin fixture) and
must finish with zero violations and every declared expectation met.
The base seed honours ``REPRO_CHAOS_SEED`` so the CI chaos matrix
sweeps the pack across seeds.
"""

from __future__ import annotations

import json

from repro.scenario import (
    SCHEMA_VERSION,
    builtin_registry,
    load_spec,
    run_scenario,
)


def test_pack_is_a_real_pack():
    """The shipped pack meets the platform's own floor: 20+ scenarios,
    a chaos core, and every advertised adversity family covered."""
    registry = builtin_registry()
    assert len(registry) >= 20
    assert len(registry.names("chaos")) >= 15
    tags = registry.tags()
    for family in ("chaos", "crash", "partition", "disconnect",
                   "adversarial", "loss", "mobility"):
        assert family in tags, f"no scenario covers {family!r}"


def test_pack_specs_round_trip():
    """to_dict -> load_spec is the identity on every shipped spec."""
    for spec in builtin_registry().specs():
        clone = load_spec(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec, spec.name


def test_pack_names_match_filenames():
    import glob
    import os

    from repro.scenario import pack_dir

    for path in glob.glob(os.path.join(pack_dir(), "*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        stem = os.path.splitext(os.path.basename(path))[0]
        assert data["name"] == stem, path


def test_scenario_certifies(scenario_spec, scenario_seed):
    """THE certification gate: zero invariant violations, every
    expectation met, for every scenario at the sweep seed."""
    result = run_scenario(scenario_spec, seed=scenario_seed)
    report = result.report
    assert report["monitors"]["violations"] == [], report
    assert result.failures == [], result.failures
    assert result.ok
    # The report is structured, complete and serializable.
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["scenario"] == scenario_spec.name
    assert report["seed"] == scenario_seed
    assert report["monitors"]["count"] == 12
    assert report["final_time"] >= scenario_spec.duration
    assert set(report["messages"]) >= {"fixed", "wireless", "search"}
    json.dumps(report)


def test_resubmitted_r2_request_is_not_granted_twice():
    """ROADMAP 1(a): at seed 34 an amnesiac MH resubmits a request its
    MSS still holds; R2'' granted both copies in one token visit
    ("entered the CS twice").  The duplicate is now dropped."""
    result = run_scenario(builtin_registry().get("kitchen_sink"), seed=34)
    assert result.report["monitors"]["violations"] == []
    assert result.failures == [], result.failures
    assert result.report["faults"]["r2.duplicate_request"] == 1


def test_join_in_flight_at_a_crash_does_not_strand_a_request():
    """ROADMAP 1(b): at seed 64 mh-8's join was on the air when mss-1
    crashed; the crash orphaned only the cell's MHs, so mh-8 believed
    itself attached to the dead station and its request was never
    served.  An in-flight joiner is now orphaned with the cell."""
    result = run_scenario(builtin_registry().get("kitchen_sink"), seed=64)
    assert result.report["monitors"]["violations"] == []
    assert result.failures == [], result.failures
    assert result.report["faults"].get("send_to_mh.gave_up", 0) == 0


def test_adversarial_scenario_actually_lies():
    """The adversarial scenario wires real malicious MHs into R2''."""
    spec = builtin_registry().get("adversarial_r2pp")
    assert spec.workload["malicious_mhs"] == [0, 2]
    result = run_scenario(spec, seed=7)
    assert result.ok
    # The token-list variant defends: lying never buys a violation.
    assert result.report["monitors"]["ok"]


def test_diurnal_scenario_moves_the_rates():
    """The rush hour genuinely changes arrival rates mid-run: the rush
    window completes far more requests than the quiet one."""
    spec = builtin_registry().get("diurnal_load")
    result = run_scenario(spec, seed=7)
    assert result.ok
    # 0.02 -> 0.12 -> 0.01 per MH: with 8 MHs over the windows the
    # total must clearly exceed the no-rush expectation.
    assert result.report["workload"]["completed"] >= 20


def test_groups_churn_floor_is_outside_the_arrival_tail():
    """The scenario sends Poisson(0.06 x 200 = 12) group messages; its
    ``min_sent`` / ``min_deliveries`` floors only prove the workload
    ran.  At 5 / 15 they sat inside the arrival process's own tail
    (P[X <= 4] ~ 0.8%) and seeds 28, 89 and 107 -- four messages sent,
    every monitor clean -- failed certification on the count alone."""
    spec = builtin_registry().get("localized_groups_churn")
    for seed in (28, 89, 107):
        result = run_scenario(spec, seed=seed)
        assert result.report["monitors"]["violations"] == []
        assert result.report["workload"]["sent"] < 5  # the old floor
        assert result.ok, (seed, result.failures)
