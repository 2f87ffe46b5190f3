#!/usr/bin/env python3
"""CI gate: a kept trace changes nothing, and the ledger keeps
per-event semantics.

Runs every certified chaos-pack scenario twice per certification
seed -- once as ``run_scenario`` runs it and once with ``trace=True``
-- and fails unless

(a) the two reports are equal apart from wall time (violations,
    monitor summaries, health counters, costs, message totals, final
    time) and fired the same number of events: keeping the trace is a
    drain step and must not change what the monitors see; and
(b) the traced run's online verdicts and health series equal
    :func:`~repro.monitor.replay_events` -- per-event dispatch -- over
    its own kept trace, bound to the live network and finalized at
    ``sim.now``.  Only the three gauges a sample reads from the live
    system (``pending_events``, ``events_processed``, ``mss_load``)
    are left out, since the replay runs after the run has ended.

This is the acceptance gate of the ledger pipeline: exact monitoring
off the hot path must not lose or reorder a single event.

    PYTHONPATH=src python tools/check_batched_equivalence.py
    PYTHONPATH=src python tools/check_batched_equivalence.py \\
        --seeds 7,19,42 --scenario kitchen_sink
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest
from time import perf_counter

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "src"),
)

from repro.monitor import HealthMonitor, replay_events  # noqa: E402
from repro.scenario import builtin_registry, run_scenario  # noqa: E402
from repro.scenario.runner import scenario_monitors  # noqa: E402

DEFAULT_SEEDS = (7, 19, 42)

#: health gauges a sample reads from the live system, not the events.
DRAIN_TIME_GAUGES = ("pending_events", "events_processed", "mss_load")


def scrub(report):
    """Everything must match except measured wall time."""
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


def diff_keys(a, b):
    return sorted(
        k for k in set(a) | set(b) if a.get(k) != b.get(k)
    )


def _exact(sample):
    return {k: v for k, v in sample.items() if k not in DRAIN_TIME_GAUGES}


def replay_mismatches(sim, monitors):
    """Where ``sim``'s online monitors disagree with per-event replay
    of fresh ``monitors`` over its kept trace (empty when they agree).
    ``sim`` must be traced, monitored and finalized."""
    online = sim.monitor_hub
    replay = replay_events(sim.tracer.events, monitors,
                           network=sim.network, finalize=False)
    replay.finalize(at=sim.now)
    problems = []
    if online.report() != replay.report():
        problems.append("verdicts differ from per-event replay")
    health = online.monitor(HealthMonitor)
    if health is not None:
        replayed = replay.monitor(HealthMonitor).samples
        if any(a is None or b is None or _exact(a) != _exact(b)
               for a, b in zip_longest(health.samples, replayed)):
            problems.append("health series differs from per-event replay")
    return problems


def check(spec, seed):
    """Every way a run of ``spec`` at ``seed`` breaks (a) or (b)."""
    traced = run_scenario(spec, seed=seed, trace=True)
    plain = run_scenario(spec, seed=seed)
    problems = []
    report_t, report_p = scrub(traced.report), scrub(plain.report)
    if report_t != report_p:
        problems.append(
            f"kept trace changes the report in {diff_keys(report_t, report_p)}"
        )
    if traced.events != plain.events:
        problems.append(
            f"event counts differ ({traced.events} vs {plain.events})"
        )
    return problems + replay_mismatches(traced.sim, scenario_monitors(spec))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify that a kept trace changes no report and that "
                    "online monitoring equals per-event replay, on the "
                    "certified chaos pack."
    )
    parser.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                        help="comma-separated seeds (default 7,19,42)")
    parser.add_argument("--scenario", default=None,
                        help="single scenario name (default: whole pack)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    registry = builtin_registry()
    names = [args.scenario] if args.scenario else sorted(registry.names())
    started = perf_counter()
    checked = 0
    failures = []
    for name in names:
        spec = registry.get(name)
        for seed in seeds:
            checked += 1
            for problem in check(spec, seed):
                failures.append(f"{name} seed={seed}: {problem}")
                print(f"FAIL {name} seed={seed}: {problem}")
    elapsed = perf_counter() - started
    print(
        f"batched-equivalence: {checked} runs x2 modes + replay in "
        f"{elapsed:.1f}s, {len(failures)} failures"
    )
    if failures:
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
