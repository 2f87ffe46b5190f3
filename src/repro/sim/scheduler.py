"""The discrete-event scheduler: a binary heap with lazy cancellation.

The scheduler is the single source of simulated time.  Events are
callbacks scheduled at absolute times; ties are broken by insertion
order, which makes every run fully deterministic for a fixed seed and
call sequence.

Hot-path design (this is the innermost loop of every simulation):

* Heap entries are plain ``(time, seq, action, args, event)`` tuples.
  ``seq`` is unique, so comparisons resolve on the first two slots in
  C-level tuple comparison and nothing behind them is ever compared --
  no Python-level ``__lt__`` dispatch per sift step.  The loop fires
  ``entry[2](*entry[3])``; slot 4 is looked at only for cancellation.
* Cancellation is lazy with an exact live counter: ``cancel()``
  increments ``_n_cancelled`` while the entry stays in the heap, pops
  decrement it, so :attr:`pending_count` and :meth:`drain` are O(1)
  instead of scanning the heap.  When cancelled entries outnumber live
  ones the heap is compacted in place -- checked both on cancel and in
  the run loop, so interleaved cancellations are reclaimed even when
  no cancelled entry ever reaches the heap top.
* Fire-and-forget work uses :meth:`Scheduler.post` /
  :meth:`Scheduler.post_at`, which return no handle; because nothing
  can cancel (or even see) such an event, no :class:`Event` object is
  built for it at all -- slot 4 of its entry is ``None`` and the heap
  tuple is the only allocation.

The deterministic substrate beneath every protocol in the paper reproduction.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, SimulationError


class Event:
    """The handle of a scheduled callback.

    Instances are returned by :meth:`Scheduler.schedule_at` /
    :meth:`Scheduler.schedule` and may be cancelled before they fire.
    The callback and its arguments live in the heap entry, not here;
    the handle-free ``post`` API builds no handle at all.
    """

    __slots__ = ("time", "seq", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        scheduler: Optional["Scheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        # Back-reference used only to keep the scheduler's cancelled
        # counter exact; cleared when the entry leaves the heap so a
        # late cancel() of an already-fired event cannot skew it.
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.4f}, seq={self.seq}, {state})"


class Scheduler:
    """Binary-heap discrete-event scheduler.

    Guarantees:

    * events fire in nondecreasing time order;
    * events scheduled at the same time fire in the order they were
      scheduled (FIFO tie-break via a sequence counter);
    * :attr:`now` never moves backwards.
    """

    #: compaction only kicks in past this many cancelled entries, so
    #: small heaps never pay the rebuild.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now: float = 0.0
        self._events_processed = 0
        self._n_cancelled = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events.

        O(1): maintained via the live cancellation counter rather than
        a heap scan.
        """
        return len(self._heap) - self._n_cancelled

    @property
    def pool_stats(self) -> None:
        """Always ``None``: the scheduler recycles no objects.

        Kept as a name only, because the repository benchmark
        (``bench/workloads.py``) reads it from every simulation.
        """
        return None

    def _note_cancel(self) -> None:
        """Bookkeeping for one newly cancelled in-heap entry.

        The threshold is *at least* half, not strictly more: perfectly
        interleaved cancel patterns (every other entry) park the
        cancelled fraction exactly at 1/2, where a strict comparison
        would never fire and the heap would retain 2x live entries
        indefinitely.
        """
        self._n_cancelled += 1
        if (
            self._n_cancelled > self._COMPACT_MIN
            and self._n_cancelled * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so aliases of ``_heap`` held by a
        running loop stay valid.  Rebuilding preserves the firing order
        exactly: ``(time, seq)`` keys are unique, so the heap's pop
        sequence is the sorted order regardless of layout.  Handle-free
        entries (slot 4 ``None``) cannot be cancelled and always stay.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(heap)
        self._n_cancelled = 0

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``action(*args)`` at absolute simulated ``time``."""
        # ``not >=`` rather than ``<``: a NaN time fails every ordered
        # comparison, and one that got in would set ``now`` to NaN and
        # make every later past-time check vacuous.
        if not time >= self.now:
            raise ConfigurationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, self)
        heapq.heappush(self._heap, (time, seq, action, args, event))
        return event

    def schedule(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``action(*args)`` after a nonnegative ``delay``."""
        if not delay >= 0:
            raise ConfigurationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, action, *args)

    def post_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: returns no handle.

        Because the event can never be cancelled or inspected, no
        :class:`Event` is built for it: the heap entry is the whole
        record.  Identical ordering (same ``seq`` stream) to
        ``schedule_at``.
        """
        if not time >= self.now:
            raise ConfigurationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, args, None))

    def post(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: returns no handle."""
        if not delay >= 0:
            raise ConfigurationError(f"negative delay: {delay}")
        self.post_at(self.now + delay, action, *args)

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (cancelled events are skipped silently).
        """
        return self.run(max_events=1) > 0

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired in this call.

        Returns the number of events fired by this call.  When ``until``
        is given, :attr:`now` is advanced to ``until`` even if the queue
        drained earlier, so repeated ``run(until=...)`` calls observe a
        continuous clock.
        """
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        if until != until:  # NaN: no event time compares past it
            raise ConfigurationError(f"cannot run until t={until}")
        self._running = True
        fired = 0
        # The heap list is aliased for speed; _compact mutates it in
        # place, so the alias stays valid across callbacks.
        heap = self._heap
        heappop = heapq.heappop
        compact_min = self._COMPACT_MIN
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    return fired
                entry = heap[0]
                event = entry[4]
                if event is not None and event.cancelled:
                    heappop(heap)
                    self._n_cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if event is not None:
                    event._scheduler = None
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event time moved backwards")
                self.now = time
                self._events_processed += 1
                entry[2](*entry[3])
                fired += 1
                # Reclaim interleaved cancellations: live pops shrink the
                # heap, so the cancelled fraction can cross 1/2 without
                # any new cancel() ever seeing it (the _note_cancel check
                # alone misses that case).
                n_cancelled = self._n_cancelled
                if n_cancelled > compact_min and n_cancelled * 2 >= len(heap):
                    self._compact()
            if until is not None and until > self.now:
                self.now = until
            return fired
        finally:
            self._running = False

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the event queue is empty (bounded by ``max_events``).

        Raises :class:`SimulationError` if the bound is hit, which almost
        always indicates a livelock (e.g. two hosts bouncing a message).
        """
        fired = self.run(max_events=max_events)
        if self.pending_count:
            raise SimulationError(
                f"drain() exceeded {max_events} events; likely livelock"
            )
        return fired
