"""Compare two benchmark records: ``python bench/compare.py A.json B.json``.

A and B are files written by ``bench/run.py --json`` (all workloads, or
one workload).  One row per workload x end-to-end metric gives both
medians with their quartiles, the ratio B/A *with A as its base*, the
metric's bound, and a verdict:

``same``        B is within the bound of A;
``worse``       B is worse than A by more than the bound -- or an exact
                metric (bound 0: ``fail_share``, ``cost_error``,
                ``cost_per_op``, the event count) differs at all;
``better``      B is better than A by more than the bound;
``unresolved``  the medians differ by more than the bound, but a side's
                own spread (q3 - q1) is wider than the bound and the two
                sides' runs interleave, so the difference is not shown.

Exit code 1 if any row is ``worse``.  This is the tool the "two sets of
runs agree" criterion is checked with.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional


def load(path: str) -> Dict[str, dict]:
    """Workload name -> record, for either shape ``run.py`` writes."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def verdict(a: dict, b: dict) -> str:
    """Judge metric entry ``b`` against baseline entry ``a``."""
    base, new, bound = a["median"], b["median"], a["bound"]
    if base is None or new is None:
        return "same" if base == new else "worse"
    if bound == 0 or base == 0:
        return "same" if new == base else "worse"
    worse_by = (new - base) / base
    if a["better"] == "higher":
        worse_by = -worse_by
    if abs(worse_by) <= bound:
        return "same"
    if "values" in a and "values" in b:
        noisy = max(
            (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
        ) > bound
        interleave = not (max(b["values"]) < min(a["values"])
                          or min(b["values"]) > max(a["values"]))
        if noisy and interleave:
            return "unresolved"
    return "worse" if worse_by > 0 else "better"


def cell(entry: Optional[dict]) -> str:
    if entry is None or entry["median"] is None:
        return "n/a"
    text = f"{entry['median']:.5g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.5g}, {entry['q3']:.5g}]"
    return text


def compare(a: Dict[str, dict], b: Dict[str, dict]) -> List[tuple]:
    """Rows of (workload, metric, A, B, ratio, bound, verdict)."""
    rows = []
    for workload, record in a.items():
        other = b.get(workload)
        if other is None:
            rows.append((workload, "-", "present", "missing", "-", "-",
                         "worse"))
            continue
        events = {"median": record["events"], "bound": 0.0,
                  "better": "lower"}
        pairs = [("events", events, dict(events, median=other["events"]))]
        pairs += [(name, entry,
                   other["metrics"].get(name, {"median": None}))
                  for name, entry in record["metrics"].items()]
        for name, base, new in pairs:
            if base["median"] is None and new["median"] is None:
                continue
            both = base["median"] and new["median"] is not None
            rows.append((
                workload, name, cell(base), cell(new),
                f"{new['median'] / base['median']:.4f} of A" if both
                else "-",
                f"{base['bound']:.2f}", verdict(base, new),
            ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    header = ("workload", "metric", "A median [q1, q3]",
              "B median [q1, q3]", "B/A", "bound", "verdict")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(value).ljust(width)
                        for value, width in zip(row, widths)).rstrip())
    worse = sum(row[-1] == "worse" for row in rows)
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
