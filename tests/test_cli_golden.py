"""The subcommands print what they printed before they shared a run
driver.

``tests/golden/cli_outputs.json`` holds the stdout and exit status of
each ``mutex`` algorithm, each ``groups`` strategy, each ``proxy``
policy, ``multicast`` with and without garbage collection, and a
``mutex --recovery`` run under an MH crash, recorded while every
handler still built, fed and settled its run by hand.  A run today
must print the same bytes; the one difference allowed is the
``aborted=`` count that the ``requests`` line has carried since then.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "cli_outputs.json")

with open(GOLDEN, encoding="utf-8") as _handle:
    CASES = json.load(_handle)

#: the token the ``requests`` line gained after the recording.
ABORTED = re.compile(r" aborted=\d+")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_recording(name):
    case = CASES[name]
    lines = []
    assert main(case["argv"], emit=lines.append) == case["status"]
    out = "\n".join(lines) + "\n"
    requests = [line for line in lines if line.startswith("requests")]
    # Exactly the request lines carry the new token, once each.
    assert len(ABORTED.findall(out)) == len(requests)
    assert ABORTED.sub("", out) == case["stdout"]


def test_the_recording_covers_every_choice():
    argvs = [case["argv"] for case in CASES.values()]

    def chosen(command, flag):
        return {argv[argv.index(flag) + 1] for argv in argvs
                if argv[0] == command and flag in argv}

    assert chosen("mutex", "--algorithm") == {
        "L1", "L2", "R1", "R2", "R2'", "R2''"}
    assert chosen("groups", "--strategy") == {
        "pure_search", "always_inform", "location_view"}
    assert chosen("proxy", "--policy") == {"fixed", "local", "adaptive"}
    assert sum(argv[0] == "multicast" for argv in argvs) == 2
    assert any("--recovery" in argv for argv in argvs)
