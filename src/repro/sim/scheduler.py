"""The discrete-event scheduler: a binary heap with lazy cancellation.

The scheduler is the single source of simulated time.  Events are
callbacks scheduled at absolute times; ties are broken by insertion
order, which makes every run fully deterministic for a fixed seed and
call sequence.

Hot-path design (this is the innermost loop of every simulation):

* Heap entries are plain ``(time, seq, event)`` tuples.  ``seq`` is
  unique, so comparisons resolve on the first two slots in C-level
  tuple comparison and the :class:`Event` object itself is never
  compared -- no Python-level ``__lt__`` dispatch per sift step.
* Cancellation is lazy with an exact live counter: ``cancel()``
  increments ``_n_cancelled`` while the entry stays in the heap, pops
  decrement it, so :attr:`pending_count` and :meth:`drain` are O(1)
  instead of scanning the heap.  When cancelled entries outnumber live
  ones the heap is compacted in place -- checked both on cancel and in
  the run loop, so interleaved cancellations are reclaimed even when
  no cancelled entry ever reaches the heap top.
* Fire-and-forget work uses :meth:`Scheduler.post` /
  :meth:`Scheduler.post_at`, which return no handle; because nothing
  can cancel (or even see) such an event, the scheduler recycles the
  :class:`Event` object through a :class:`repro.pool.Pool` free list
  the moment it fires.

The deterministic substrate beneath every protocol in the paper reproduction.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.pool import Pool


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Scheduler.schedule_at` /
    :meth:`Scheduler.schedule` and may be cancelled before they fire.
    Events created by the handle-free ``post`` API are marked
    ``pooled`` and recycled after firing; they are never exposed.
    """

    __slots__ = ("time", "seq", "action", "args", "cancelled", "pooled",
                 "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Optional[Callable[..., Any]],
        args: tuple,
        scheduler: Optional["Scheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self.cancelled = False
        self.pooled = False
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


def _new_blank_event() -> Event:
    return Event(0.0, 0, None, (), None)


def _reset_event(event: Event) -> None:
    # Drop callback/argument references so the free list cannot pin
    # protocol objects (messages, hosts) alive between reuses.
    event.action = None
    event.args = ()
    event.cancelled = False
    event._scheduler = None


class Scheduler:
    """Binary-heap discrete-event scheduler.

    Guarantees:

    * events fire in nondecreasing time order;
    * events scheduled at the same time fire in the order they were
      scheduled (FIFO tie-break via a sequence counter);
    * :attr:`now` never moves backwards.

    Args:
        pooling: recycle ``post``/``post_at`` event objects through a
            free list (byte-identical behaviour; saves ~1 allocation
            per fire-and-forget event).  Disable to rule pooling out
            when debugging.
    """

    #: compaction only kicks in past this many cancelled entries, so
    #: small heaps never pay the rebuild.
    _COMPACT_MIN = 64

    #: retained-block bound for the event free list.
    _POOL_CAPACITY = 4096

    def __init__(self, pooling: bool = True) -> None:
        self._heap: list = []
        self._seq = 0
        self.now: float = 0.0
        self._events_processed = 0
        self._n_cancelled = 0
        self._running = False
        self._pool: Optional[Pool] = (
            Pool(
                _new_blank_event,
                reset=_reset_event,
                capacity=self._POOL_CAPACITY,
                name="scheduler.events",
            )
            if pooling
            else None
        )

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
    def pool_stats(self) -> Optional[dict]:
        """Event free-list counters, or ``None`` with pooling off."""
        return self._pool.stats() if self._pool is not None else None

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
        sequence is the sorted order regardless of layout.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._n_cancelled = 0

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``action(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``action(*args)`` after a nonnegative ``delay``."""
        if delay < 0:
            raise ConfigurationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, action, *args)

    def post_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: returns no handle.

        Because the event can never be cancelled or inspected, its
        :class:`Event` object is recycled through the scheduler's free
        list when it fires.  Identical ordering (same ``seq`` stream)
        to ``schedule_at``.
        """
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool is None:
            event = Event(time, seq, action, args, None)
        elif pool._outstanding is None:
            # Fast path: the free list is touched directly; the method
            # call plus reset hook of Pool.acquire cost more than the
            # whole enqueue at this call rate.
            free = pool._free
            if free:
                event = free.pop()
                pool.reused += 1
                event.time = time
                event.seq = seq
                event.action = action
                event.args = args
            else:
                event = Event(time, seq, action, args, None)
                pool.created += 1
            event.pooled = True
        else:
            event = pool.acquire()
            event.time = time
            event.seq = seq
            event.action = action
            event.args = args
            event.pooled = True
        heapq.heappush(self._heap, (time, seq, event))

    def post(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: returns no handle."""
        if delay < 0:
            raise ConfigurationError(f"negative delay: {delay}")
        self.post_at(self.now + delay, action, *args)

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (cancelled events are skipped silently).
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._n_cancelled -= 1
                continue
            event._scheduler = None
            if event.time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event time moved backwards")
            self.now = event.time
            self._events_processed += 1
            event.action(*event.args)
            if event.pooled:
                self._pool.release(event)
            n_cancelled = self._n_cancelled
            if n_cancelled > self._COMPACT_MIN and n_cancelled * 2 >= len(heap):
                self._compact()
            return True
        return False

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
        self._running = True
        fired = 0
        # The heap list is aliased for speed; _compact mutates it in
        # place, so the alias stays valid across callbacks.
        heap = self._heap
        heappop = heapq.heappop
        pool = self._pool
        fast_pool = pool is not None and pool._outstanding is None
        free = pool._free if pool is not None else None
        pool_capacity = pool.capacity if pool is not None else 0
        compact_min = self._COMPACT_MIN
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    return fired
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    self._n_cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                event._scheduler = None
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event time moved backwards")
                self.now = time
                self._events_processed += 1
                event.action(*event.args)
                fired += 1
                if event.pooled:
                    if fast_pool:
                        # Inline Pool.release + _reset_event: one method
                        # call per event is the single biggest loop cost.
                        event.action = None
                        event.args = ()
                        event.cancelled = False
                        pool.released += 1
                        if len(free) < pool_capacity:
                            free.append(event)
                    else:
                        pool.release(event)
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
