"""Checkpointing policies: when to pay the save.

The spectrum mirrors the search/inform trade-off the paper studies for
location management, transplanted to recovery:

* :class:`PerMessagePolicy` -- checkpoint after every unit of progress.
  Zero recomputation at recovery, maximal wireless overhead.
* :class:`PeriodicPolicy` -- checkpoint dirty hosts at most once per
  ``interval`` of simulated time.  Overhead bounded per period, but the
  trail (and thus the recovery fetch) grows with however far the host
  wandered within a period.
* :class:`DistancePolicy` -- Khatri et al.'s rule: checkpoint when the
  host has moved ``distance`` cells since its last checkpoint.  The
  trail can never exceed ``distance``, so the recovery cost is bounded
  by a constant of the operator's choosing, *independent of run
  length* -- the property ``repro compare --experiment recovery``
  checks (recorded with PR 6: the PR-6 column of the history table in
  ``docs/performance.md``).
* :class:`NoCheckpointPolicy` -- never checkpoint (baseline; recovery
  restarts from nothing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery.manager import RecoveryManager


class CheckpointPolicy:
    """Interface: decides when the manager takes a checkpoint."""

    name = "policy"

    def bind(self, manager: "RecoveryManager") -> None:
        """Attach to the manager (hook for schedulers)."""

    def on_progress(self, manager: "RecoveryManager", mh_id: str) -> None:
        """A client reported one unit of recoverable progress."""

    def on_moved(
        self, manager: "RecoveryManager", mh_id: str, distance: int
    ) -> None:
        """The MH's meta arrived at a new cell, ``distance`` cells from
        its checkpoint's home."""


class NoCheckpointPolicy(CheckpointPolicy):
    """Never checkpoint: recovery restores nothing (baseline)."""

    name = "none"


class PerMessagePolicy(CheckpointPolicy):
    """Checkpoint on every unit of progress."""

    name = "per-message"

    def on_progress(self, manager: "RecoveryManager", mh_id: str) -> None:
        manager.checkpoint(mh_id)


class PeriodicPolicy(CheckpointPolicy):
    """Checkpoint hosts with fresh progress at most once per interval.

    The timer is lazy: it only runs while some host is dirty, so a
    quiescent simulation drains its event queue normally instead of
    ticking forever.
    """

    name = "periodic"

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"periodic checkpoint interval must be > 0, got {interval}"
            )
        self.interval = interval
        self._dirty: Set[str] = set()
        self._running = False

    def on_progress(self, manager: "RecoveryManager", mh_id: str) -> None:
        self._dirty.add(mh_id)
        if not self._running:
            self._running = True
            manager.network.scheduler.schedule(
                self.interval, self._tick, manager
            )

    def _tick(self, manager: "RecoveryManager") -> None:
        dirty, self._dirty = self._dirty, set()
        self._running = False
        for mh_id in sorted(dirty):
            manager.checkpoint(mh_id)


class DistancePolicy(CheckpointPolicy):
    """Khatri-style distance-based checkpointing.

    A host checkpoints when it has progress to protect and has moved
    ``distance`` cells since the last checkpoint; the first unit of
    progress is checkpointed immediately (there is nothing to trail
    back to before that).
    """

    name = "distance"

    def __init__(self, distance: int) -> None:
        if distance < 1:
            raise ConfigurationError(
                f"checkpoint distance must be >= 1, got {distance}"
            )
        self.distance = distance

    def on_progress(self, manager: "RecoveryManager", mh_id: str) -> None:
        if manager.seq_of(mh_id) == 0:
            manager.checkpoint(mh_id)

    def on_moved(
        self, manager: "RecoveryManager", mh_id: str, distance: int
    ) -> None:
        if distance >= self.distance:
            manager.checkpoint(mh_id)


def policy_from_spec(spec: object) -> CheckpointPolicy:
    """Build a policy from a string spec (CLI / facade convenience).

    Accepts a ready policy instance unchanged, or one of ``"none"``,
    ``"per-message"``, ``"periodic:<interval>"``, ``"distance:<d>"``.
    """
    if isinstance(spec, CheckpointPolicy):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"recovery policy spec must be a string or policy, got {spec!r}"
        )
    head, _, arg = spec.partition(":")
    if head == "none" and not arg:
        return NoCheckpointPolicy()
    if head == "per-message" and not arg:
        return PerMessagePolicy()
    if head == "periodic":
        try:
            return PeriodicPolicy(float(arg))
        except ValueError:
            raise ConfigurationError(
                f"bad periodic interval in recovery spec {spec!r}"
            ) from None
    if head == "distance":
        try:
            return DistancePolicy(int(arg))
        except ValueError:
            raise ConfigurationError(
                f"bad distance in recovery spec {spec!r}"
            ) from None
    raise ConfigurationError(f"unknown recovery policy spec {spec!r}")
