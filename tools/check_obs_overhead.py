#!/usr/bin/env python3
"""CI gate: exact monitoring stays cheap in the BENCH record.

Reads a BENCH_<n>.json trajectory record and checks the observability
headline (ROADMAP item 3) on the wall times recorded side by side in
the same session:

* ``smoke_full_stack`` (the full default monitor set) must stay within
  ``--max-ratio`` of its monitors-off twin (same workload, same
  scheduler).  That twin is ``smoke_calendar`` when the record has the
  row and ``smoke_mutex`` otherwise: BENCH_9 and earlier ran
  ``smoke_full_stack`` on the since-deleted calendar queue, so pairing
  it with the heap's ``smoke_mutex`` would book a scheduler delta as
  monitor cost; in later records both rows run on the heap.  The
  aspirational target is 1.10x; the measured pure-Python floor on the
  reference machine is ~1.2x (about 1 us of append+replay per
  monitored row over a ~9 us/event simulator), so the default gate is
  a calibrated regression ceiling above that floor, not the
  aspiration -- see docs/observability.md for the honest accounting.

    PYTHONPATH=src python tools/check_obs_overhead.py BENCH_9.json
    PYTHONPATH=src python tools/check_obs_overhead.py BENCH_9.json \
        --max-ratio 1.35
"""

from __future__ import annotations

import argparse
import json
import sys

FULL = "smoke_full_stack"
OFF_CALENDAR = "smoke_calendar"
OFF_HEAP = "smoke_mutex"


def wall(record, name):
    try:
        return float(record["scenarios"][name]["wall_time_s"])
    except KeyError:
        raise SystemExit(
            f"obs-overhead: scenario {name!r} missing from the BENCH "
            f"record; re-run the perf harness with the smoke set"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate monitor overhead recorded in a "
                    "BENCH json file."
    )
    parser.add_argument("bench", help="path to BENCH_<n>.json")
    parser.add_argument("--max-ratio", type=float, default=1.35,
                        help="ceiling for full_stack/monitors-off wall "
                             "time (default 1.35; target 1.10)")
    args = parser.parse_args(argv)

    with open(args.bench, encoding="utf-8") as fh:
        record = json.load(fh)

    full = wall(record, FULL)
    off_name = (OFF_CALENDAR if OFF_CALENDAR in record["scenarios"]
                else OFF_HEAP)
    off = wall(record, off_name)
    ratio = full / off
    print(f"{FULL}: {full:.3f}s  {off_name}: {off:.3f}s")
    print(f"monitors on vs off : {ratio:.3f}x "
          f"(gate {args.max_ratio:.2f}x, target 1.10x)")
    if ratio > args.max_ratio:
        print(f"obs-overhead: FAIL: monitors cost {ratio:.3f}x "
              f"monitors-off wall time (ceiling {args.max_ratio:.2f}x)",
              file=sys.stderr)
        return 1
    print("obs-overhead: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
