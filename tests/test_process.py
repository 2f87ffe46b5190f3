"""Unit tests for the Poisson process."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import PoissonProcess, Scheduler


def test_poisson_firing_count_close_to_rate():
    sched = Scheduler()
    count = [0]
    proc = PoissonProcess(sched, rate=2.0,
                          action=lambda: count[0] + 1,
                          rng=random.Random(3))

    def bump():
        count[0] += 1

    proc._action = bump
    sched.run(until=1000.0)
    proc.stop()
    # Expect about 2000 firings; allow generous tolerance.
    assert 1700 < count[0] < 2300


def test_poisson_stop_inside_the_action_ends_firings():
    sched = Scheduler()
    count = [0]

    def bump():
        count[0] += 1
        if count[0] == 5:
            proc.stop()

    proc = PoissonProcess(sched, rate=1.0, action=bump,
                          rng=random.Random(1))
    sched.drain()
    assert count[0] == 5


def test_poisson_is_deterministic_for_a_seed():
    def run(seed):
        sched = Scheduler()
        times = []
        PoissonProcess(sched, rate=1.0,
                       action=lambda: times.append(sched.now),
                       rng=random.Random(seed))
        sched.run(until=10.0)
        return times

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ConfigurationError):
        PoissonProcess(Scheduler(), 0.0, lambda: None, random.Random(1))


def test_poisson_stop_cancels_pending():
    sched = Scheduler()
    proc = PoissonProcess(sched, 1.0, lambda: None, random.Random(1))
    proc.stop()
    assert sched.drain() == 0
