"""Reference seconds: host time calibrated against an interpreter spin.

The box this benchmark runs on is shared, and its speed drifts by tens
of percent between back-to-back runs of identical code.  Every timed
region is therefore cut into slices, a short pure-interpreter spin runs
between slices, and each slice's wall time is scaled by the spin rate
measured around it::

    ref_s = sum(wall_i * mean(rate_before_i, rate_after_i)) / REFERENCE_RATE

A slice that ran while the host was slow has a long wall time *and* a
low spin rate around it, so the product stays put.  The spin touches no
``repro`` code, so a change to the program cannot move the yardstick.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, List

#: iterations of one calibration spin (about 2-4 ms of interpreter work).
SPIN_ITERATIONS = 50_000

#: spin iterations per second of the notional reference machine.
REFERENCE_RATE = 1e7


def spin() -> float:
    """Run the calibration loop once; return its rate in iterations/s."""
    store: dict = {}
    total = 0
    started = perf_counter()
    for i in range(SPIN_ITERATIONS):
        store[i & 1023] = total
        total += i
    return SPIN_ITERATIONS / (perf_counter() - started)


class RefTimer:
    """Accumulates reference seconds (and raw wall) over timed slices."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.wall_s = 0.0
        #: reference seconds of each slice, in order.
        self.parts: List[float] = []
        self._rate = spin()

    def slice(self, step: Callable[..., Any], *args: Any) -> Any:
        """Time ``step(*args)`` as one slice, then re-calibrate."""
        before = self._rate
        started = perf_counter()
        result = step(*args)
        wall = perf_counter() - started
        after = self._rate = spin()
        self.wall_s += wall
        ref = wall * (before + after) / (2.0 * REFERENCE_RATE)
        self.ref_s += ref
        self.parts.append(ref)
        return result
