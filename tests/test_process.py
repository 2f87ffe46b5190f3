"""Unit tests for periodic and Poisson processes."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import PeriodicProcess, PoissonProcess, Scheduler


def test_periodic_fires_at_fixed_interval():
    sched = Scheduler()
    times = []
    PeriodicProcess(sched, 2.0, lambda: times.append(sched.now),
                    max_firings=4)
    sched.drain()
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_periodic_start_after_overrides_first_firing():
    sched = Scheduler()
    times = []
    PeriodicProcess(sched, 5.0, lambda: times.append(sched.now),
                    start_after=1.0, max_firings=2)
    sched.drain()
    assert times == [1.0, 6.0]


def test_periodic_stop_prevents_future_firings():
    sched = Scheduler()
    count = [0]

    def action():
        count[0] += 1
        if count[0] == 2:
            proc.stop()

    proc = PeriodicProcess(sched, 1.0, action)
    sched.drain()
    assert count[0] == 2


def test_periodic_rejects_nonpositive_interval():
    with pytest.raises(ConfigurationError):
        PeriodicProcess(Scheduler(), 0.0, lambda: None)


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
