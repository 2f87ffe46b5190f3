#!/usr/bin/env python3
"""Regenerate ``docs/walkthroughs/`` from the walkthrough scenarios.

Thin wrapper over :mod:`repro.trace.walkthroughs`: runs every builtin
scenario spec tagged ``walkthrough`` (``src/repro/scenario/
walkthroughs/*.json``) through ``repro.scenario.run_scenario(spec,
trace=True)`` and renders one Markdown page per walkthrough (the spec's
intro, Mermaid sequence diagram, step-by-step event table with cost
annotations, priced cost summary, the spec's notes filled in from the
run's report) plus an index.

The pages are checked in; CI re-runs this script and fails on any diff,
so the scenarios and renderer must stay deterministic.

    PYTHONPATH=src python tools/gen_walkthroughs.py            # write
    PYTHONPATH=src python tools/gen_walkthroughs.py --check    # CI mode
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
)

from repro.trace.walkthroughs import render_all, write_all  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs", "walkthroughs",
)


def check(out_dir: str) -> int:
    """Exit nonzero if any checked-in page differs from a fresh render."""
    pages = render_all()
    stale = []
    for filename, content in sorted(pages.items()):
        path = os.path.join(out_dir, filename)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                on_disk = fh.read()
        except OSError:
            on_disk = None
        if on_disk != content:
            stale.append(filename)
    if stale:
        print("stale walkthrough pages (regenerate with "
              "`PYTHONPATH=src python tools/gen_walkthroughs.py`):")
        for filename in stale:
            print(f"  {filename}")
        return 1
    print(f"docs/walkthroughs up to date ({len(pages)} pages)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output directory (default: docs/walkthroughs)")
    parser.add_argument("--check", action="store_true",
                        help="verify the checked-in pages match a fresh "
                             "render instead of writing")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.out)
    for path in write_all(args.out):
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
