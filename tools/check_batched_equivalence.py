#!/usr/bin/env python3
"""CI gate: the monitor ledger is equivalent to per-event dispatch.

Runs every certified chaos-pack scenario twice across the
certification seeds -- once as ``run_scenario`` runs it (ledger rows
replayed in drained batches) and once with ``trace=True`` (the
recording hub, which delivers every event to the monitors as it is
emitted) -- and fails if any report field other than wall time
differs: violations, monitor summaries, health counters, costs,
message totals, final time.  This is the acceptance gate of the
ledger pipeline (ROADMAP item 3): exact monitoring off the hot path
must not lose or reorder a single event.

    PYTHONPATH=src python tools/check_batched_equivalence.py
    PYTHONPATH=src python tools/check_batched_equivalence.py \
        --seeds 7,19,42 --scenario kitchen_sink
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "src"),
)

from repro.scenario import builtin_registry, run_scenario  # noqa: E402

DEFAULT_SEEDS = (7, 19, 42)


def scrub(report):
    """Everything must match except measured wall time."""
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


def diff_keys(a, b):
    return sorted(
        k for k in set(a) | set(b) if a.get(k) != b.get(k)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify ledger == per-event (trace=True) monitor "
                    "dispatch on the certified chaos pack."
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
            event = run_scenario(spec, seed=seed, trace=True)
            batched = run_scenario(spec, seed=seed)
            checked += 1
            report_e = scrub(event.report)
            report_b = scrub(batched.report)
            if report_e != report_b:
                keys = diff_keys(report_e, report_b)
                failures.append(f"{name} seed={seed}: differs in {keys}")
                print(f"FAIL {name} seed={seed}: {keys}")
            elif event.events != batched.events:
                failures.append(
                    f"{name} seed={seed}: event counts differ "
                    f"({event.events} vs {batched.events})"
                )
    elapsed = perf_counter() - started
    print(
        f"batched-equivalence: {checked} runs x2 modes in "
        f"{elapsed:.1f}s, {len(failures)} failures"
    )
    if failures:
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
