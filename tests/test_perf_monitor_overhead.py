"""Perf guarantees of the monitor layer.

Two promises are priced here:

1. **Zero cost when off.**  ``Simulation(monitors=None)`` takes the
   same fast path PR 4 optimized -- the monitors-off smoke scenarios
   must stay within the CI tolerance of the checked-in ``BENCH_4.json``
   record (the pre-monitor baseline), using the same
   calibration-normalized comparison the perf gate uses.
2. **Bounded, observation-only cost when on.**  ``smoke_full_stack``
   runs the exact ``smoke_mutex`` workload under the full default
   monitor set: the event count must be identical (monitors schedule
   nothing) and the slowdown must stay within an order of magnitude
   (the dispatch table, not a per-event linear scan).

The wall-clock assertions use generous tolerances: this is a
functional guardrail against accidental O(n) scans on the hot path,
not a microbenchmark -- ``tools/perf_harness.py`` and the CI
``perf-smoke`` job do the precise tracking.
"""

from __future__ import annotations

import os

from repro.perf import (
    SCENARIOS,
    calibrate,
    check_regressions,
    compare,
    load_bench,
    run_scenario,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: single-repeat in-process runs are noisy; the CI gate (3 repeats in a
#: quiet process) keeps the tight 0.30 tolerance.
LOCAL_TOLERANCE = 0.60


def test_smoke_full_stack_is_registered_for_the_ci_gate():
    scenario = SCENARIOS["smoke_full_stack"]
    assert scenario.smoke
    assert "monitor" in scenario.tags


def test_monitored_run_processes_identical_events():
    baseline = SCENARIOS["smoke_mutex"].run()
    monitored = SCENARIOS["smoke_full_stack"].run()
    assert monitored == baseline


def test_monitoring_overhead_is_bounded():
    off = run_scenario("smoke_mutex", repeats=1)
    on = run_scenario("smoke_full_stack", repeats=1)
    assert on.events == off.events
    slowdown = off.events_per_sec / on.events_per_sec
    assert slowdown < 10.0, (
        f"monitoring made the smoke workload {slowdown:.1f}x slower; "
        "the dispatch path has regressed from table lookup to scan"
    )


def test_monitors_off_stays_within_tolerance_of_bench4():
    baseline = load_bench(os.path.join(REPO_ROOT, "BENCH_4.json"))
    current = {
        "schema": 1,
        "calibration_ops_per_sec": calibrate(),
        "scenarios": {
            name: {
                "events_per_sec": result.events_per_sec,
                "events": result.events,
                "wall_time_s": result.wall_time_s,
                "peak_rss_kb": result.peak_rss_kb,
                "repeats": result.repeats,
            }
            for name, result in (
                # BENCH_4 predates the smoke_scale -> smoke_mutex
                # rename; the workload is unchanged, so compare
                # today's smoke_mutex under the record's old name.
                (bench4_name, run_scenario(name, repeats=1))
                for bench4_name, name in (
                    ("smoke_scale", "smoke_mutex"),
                    ("smoke_search", "smoke_search"),
                )
            )
        },
    }
    deltas = [d for d in compare(current, baseline)
              if d.name in current["scenarios"]]
    assert deltas, "no overlapping smoke scenarios with BENCH_4"
    failures = check_regressions(deltas, max_regression=LOCAL_TOLERANCE)
    assert not failures, "\n".join(failures)
