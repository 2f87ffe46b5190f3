"""A periodic crowd-churn driver over the population store.

The scale counterpart of :class:`~repro.mobility.UniformMobility` /
:class:`~repro.mobility.DisconnectionModel` (ROADMAP item 2): instead
of one Poisson process and one scheduled event per MH, a single
self-rescheduling tick applies the store's batched cohort operations
-- so the scheduler cost of crowd churn is O(ticks), not O(N).
Deterministic given its RNG, like every other driver.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.scale.store import PopulationStore
from repro.sim import Scheduler


class CrowdChurn:
    """Apply mass move/disconnect/reconnect to the crowd every ``tick``.

    Args:
        population: the store to churn.
        scheduler: the simulation scheduler.
        tick: simulated time between churn rounds.
        move_fraction: ``fraction`` handed to
            :meth:`PopulationStore.mass_move` each tick.
        disconnect_fraction: likewise for ``mass_disconnect``.
        reconnect_fraction: likewise for ``mass_reconnect`` -- it sizes
            the draws over all N hosts, not the share that reconnects.
        rng: randomness source (default: seeded ``Random(0)``).
    """

    def __init__(
        self,
        population: PopulationStore,
        scheduler: Scheduler,
        tick: float = 10.0,
        move_fraction: float = 0.01,
        disconnect_fraction: float = 0.0,
        reconnect_fraction: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if tick <= 0:
            raise ConfigurationError("tick must be positive")
        self.population = population
        self.scheduler = scheduler
        self.tick = tick
        self.move_fraction = move_fraction
        self.disconnect_fraction = disconnect_fraction
        self.reconnect_fraction = reconnect_fraction
        self.rng = rng if rng is not None else random.Random(0)
        self.ticks = 0
        self.moved = 0
        self.disconnected = 0
        self.reconnected = 0
        self._event = None
        self._running = False

    def start(self) -> None:
        """Schedule the first tick (idempotent)."""
        if self._running:
            return
        self._running = True
        self._event = self.scheduler.schedule(self.tick, self._fire)

    def stop(self) -> None:
        """Cancel the pending tick and stop rescheduling."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        population = self.population
        rng = self.rng
        if self.move_fraction:
            self.moved += population.mass_move(self.move_fraction, rng)
        if self.disconnect_fraction:
            self.disconnected += population.mass_disconnect(
                self.disconnect_fraction, rng
            )
        if self.reconnect_fraction:
            self.reconnected += population.mass_reconnect(
                self.reconnect_fraction, rng
            )
        self.ticks += 1
        self._event = self.scheduler.schedule(self.tick, self._fire)
