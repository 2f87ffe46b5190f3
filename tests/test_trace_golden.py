"""``repro monitor`` and ``repro trace`` print what they printed when
the walkthrough scenarios were hand-wired simulations.

``tests/golden/trace_outputs.json`` holds the stdout and exit status of
``repro monitor`` and, for each of the seven walkthrough scenarios,
``repro trace --scenario NAME`` in the ``jsonl`` and ``summary``
formats, recorded before the scenarios became specs.  A run today must
print the same bytes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "trace_outputs.json")

with open(GOLDEN, encoding="utf-8") as _handle:
    CASES = json.load(_handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_recording(name):
    case = CASES[name]
    lines = []
    assert main(case["argv"], emit=lines.append) == case["status"]
    assert "\n".join(lines) + "\n" == case["stdout"]


def test_the_recording_covers_every_scenario_and_format():
    traced = {(case["argv"][2], case["argv"][4]) for case in CASES.values()
              if case["argv"][0] == "trace"}
    names = {name for name, _ in traced}
    assert len(names) == 7
    assert traced == {(name, fmt) for name in names
                      for fmt in ("jsonl", "summary")}
    assert ["monitor"] in [case["argv"] for case in CASES.values()]
