"""``pytest bench/`` runs the benchmark's self-test (tiny sizes)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402


def test_selftest_passes():
    assert run.selftest() == []


def test_knob_guard_catches_each_kind():
    source = (
        "import repro.perf\n"
        "from repro.perf import harness\n"
        "Simulation(4, 8, scheduler='calendar')\n"
        "Simulation(4, 8, **{'pooling': False})\n"
        "sim.scheduler._heap\n"
        "self._mine\n"
        "f.__name__\n"
    )
    found = run.knob_violations(source, "example.py")
    assert sorted(line.split(": ", 1)[1] for line in found) == [
        "imports repro.perf", "imports repro.perf", "passes pooling=",
        "passes scheduler=", "touches ._heap",
    ]


def test_compare_verdicts():
    def entry(values, better="lower", bound=0.10):
        return dict(run.summarize(values), better=better, bound=bound)

    base = entry([1.00, 1.01, 1.02, 1.03, 1.04])
    assert compare.verdict(base, entry([1.05, 1.06, 1.07, 1.08, 1.09])) \
        == "same"
    assert compare.verdict(base, entry([1.30, 1.31, 1.32, 1.33, 1.34])) \
        == "worse"
    assert compare.verdict(base, entry([0.70, 0.71, 0.72, 0.73, 0.74])) \
        == "better"
    # Wider than the bound and interleaved with the baseline: not shown.
    assert compare.verdict(base, entry([0.95, 1.0, 1.2, 1.4, 1.6])) \
        == "unresolved"
    rate = entry([100.0, 101.0, 102.0], better="higher")
    assert compare.verdict(rate, entry([80.0, 81.0, 82.0],
                                       better="higher")) == "worse"
    exact = {"median": 116.5, "better": "lower", "bound": 0.0}
    assert compare.verdict(exact, dict(exact)) == "same"
    assert compare.verdict(exact, dict(exact, median=116.6)) == "worse"
