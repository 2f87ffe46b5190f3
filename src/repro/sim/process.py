"""Process helpers for recurring simulated activities.

Two small building blocks drive workloads and mobility: a fixed-interval
:class:`PeriodicProcess` and an exponential-interarrival
:class:`PoissonProcess`.  Both call a user callback once per firing and
reschedule themselves until stopped; a periodic process may also stop
itself after ``max_firings``.
These drive the workloads exercising the paper's Section 3-5 algorithms.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.scheduler import Event, Scheduler


class PeriodicProcess:
    """Invoke ``action`` every ``interval`` time units.

    The first firing happens at ``start_after`` (default: one interval
    from creation time).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        action: Callable[[], Any],
        start_after: Optional[float] = None,
        max_firings: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive: {interval}")
        self._scheduler = scheduler
        self._interval = interval
        self._action = action
        self._max_firings = max_firings
        self.firings = 0
        self._stopped = False
        first = interval if start_after is None else start_after
        self._pending: Optional[Event] = scheduler.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.firings += 1
        self._action()
        if self._max_firings is not None and self.firings >= self._max_firings:
            self._stopped = True
            return
        self._pending = self._scheduler.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Stop future firings.  Idempotent."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


class PoissonProcess:
    """Invoke ``action`` with exponential interarrival times.

    ``rate`` is the expected number of firings per unit of simulated
    time.  Randomness comes from the supplied :class:`random.Random` so
    runs stay reproducible.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rate: float,
        action: Callable[[], Any],
        rng: random.Random,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive: {rate}")
        self._scheduler = scheduler
        self._rate = rate
        self._action = action
        self._rng = rng
        self.firings = 0
        self._stopped = False
        self._pending: Optional[Event] = scheduler.schedule(
            self._next_delay(), self._fire
        )

    @property
    def rate(self) -> float:
        """The current expected firings per unit of simulated time."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the arrival rate; takes effect from the next firing.

        The interarrival draw already pending keeps its old delay
        (there is no thinning/rescheduling), which is exactly the
        behaviour a piecewise-constant rate curve wants.
        """
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive: {rate}")
        self._rate = rate

    def _next_delay(self) -> float:
        return self._rng.expovariate(self._rate)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.firings += 1
        self._action()
        self._pending = self._scheduler.schedule(self._next_delay(), self._fire)

    def stop(self) -> None:
        """Stop future firings.  Idempotent."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
