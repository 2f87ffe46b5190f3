"""Process helper for recurring simulated activities.

An exponential-interarrival :class:`PoissonProcess` drives workloads and
mobility: it calls a user callback once per firing and reschedules
itself until stopped.
It drives the workloads exercising the paper's Section 3-5 algorithms.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, require_number
from repro.sim.scheduler import Event, Scheduler


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
        require_number("PoissonProcess.rate", rate)
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
        require_number("PoissonProcess.rate", rate)
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
