"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Event, Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "c")
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.drain()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sched = Scheduler()
    fired = []
    for label in "abcde":
        sched.schedule(1.0, fired.append, label)
    sched.drain()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.drain()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_run_until_stops_before_later_events():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(5.0, fired.append, "late")
    sched.run(until=2.0)
    assert fired == ["early"]
    assert sched.now == 2.0
    sched.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sched = Scheduler()
    sched.run(until=7.0)
    assert sched.now == 7.0


def test_run_until_nan_is_refused():
    sched = Scheduler()
    fired = []
    sched.post(1.0, fired.append, "never")
    with pytest.raises(ConfigurationError, match="nan"):
        sched.run(until=float("nan"))
    assert fired == []
    sched.run(until=2.0)  # the refusal left the scheduler usable
    assert fired == ["never"]


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    event.cancel()
    sched.drain()
    assert fired == []


def test_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.drain() == 0


def test_events_scheduled_during_run_fire():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sched.schedule(1.0, chain, n + 1)

    sched.schedule(0.0, chain, 0)
    sched.drain()
    assert fired == [0, 1, 2, 3]
    assert sched.now == 3.0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(ConfigurationError):
        sched.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.drain()
    with pytest.raises(ConfigurationError):
        sched.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize(
    "method", ["post", "post_at", "schedule", "schedule_at"])
def test_nan_time_rejected(method):
    # NaN fails every ordered comparison: a ``time < now`` guard lets it
    # in, it fires, and ``now`` becomes NaN -- after which no past-time
    # check can ever trip again.
    sched = Scheduler()
    fired = []
    with pytest.raises(ConfigurationError):
        getattr(sched, method)(float("nan"), fired.append, "nan")
    assert sched.pending_count == 0
    sched.post_at(1.0, fired.append, "ok")
    sched.run()
    assert fired == ["ok"]
    assert sched.now == 1.0


def test_max_events_bounds_run():
    sched = Scheduler()
    for _ in range(10):
        sched.schedule(1.0, lambda: None)
    assert sched.run(max_events=4) == 4
    assert sched.pending_count == 6


def test_drain_detects_livelock():
    sched = Scheduler()

    def forever():
        sched.schedule(1.0, forever)

    sched.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sched.drain(max_events=100)


def test_events_processed_counter():
    sched = Scheduler()
    for _ in range(5):
        sched.schedule(1.0, lambda: None)
    sched.drain()
    assert sched.events_processed == 5


def test_step_returns_false_on_empty_queue():
    assert Scheduler().step() is False


def test_scheduler_not_reentrant():
    sched = Scheduler()
    errors = []

    def reenter():
        try:
            sched.run()
        except SimulationError as exc:
            errors.append(exc)

    sched.schedule(1.0, reenter)
    sched.drain()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=50))
def test_property_firing_times_are_sorted(delays):
    sched = Scheduler()
    times = []
    for delay in delays:
        sched.schedule(delay, lambda: times.append(sched.now))
    sched.drain()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.integers()), max_size=40))
def test_property_ties_break_by_insertion_order(items):
    sched = Scheduler()
    fired = []
    for delay, tag in items:
        sched.schedule(delay, fired.append, (delay, tag))
    sched.drain()
    # Stable sort of the insertion sequence by delay equals firing order.
    expected = sorted(items, key=lambda pair: pair[0])
    assert fired == expected


# ----------------------------------------------------------------------
# Lazy cancellation and heap compaction
# ----------------------------------------------------------------------

def test_pending_count_exact_under_cancellation():
    sched = Scheduler()
    events = [sched.schedule(float(i), lambda: None) for i in range(100)]
    assert sched.pending_count == 100
    for event in events[::2]:
        event.cancel()
    assert sched.pending_count == 50
    # Cancelling twice changes nothing.
    events[0].cancel()
    assert sched.pending_count == 50
    sched.drain()
    assert sched.pending_count == 0
    assert sched.events_processed == 50


def test_compaction_shrinks_heap_under_heavy_cancellation():
    sched = Scheduler()
    events = [sched.schedule(float(i), lambda: None) for i in range(1000)]
    for event in events[:900]:
        event.cancel()
    # Cancelled entries outnumbered live ones long ago, so the heap
    # must have been compacted well below the 1000 pushed entries.
    assert len(sched._heap) < 500
    assert sched.pending_count == 100
    sched.drain()
    assert sched.events_processed == 100


def test_cancel_after_fire_is_harmless():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    live = sched.schedule(2.0, lambda: None)
    sched.step()
    # The event already fired; a late cancel must not skew the
    # pending-count bookkeeping of the entries still in the heap.
    event.cancel()
    assert sched.pending_count == 1
    sched.drain()
    assert sched.events_processed == 2
    assert not live.cancelled


def test_cancel_during_run_skips_event():
    sched = Scheduler()
    fired = []
    victim = sched.schedule(2.0, fired.append, "victim")
    sched.schedule(1.0, victim.cancel)
    sched.schedule(3.0, fired.append, "survivor")
    sched.drain()
    assert fired == ["survivor"]


def test_compaction_during_run_preserves_order():
    # A callback cancels enough future events to trigger in-place
    # compaction while run() holds an alias of the heap; the remaining
    # events must still fire in order.
    sched = Scheduler()
    fired = []
    victims = [
        sched.schedule(10.0 + i * 0.25, fired.append, ("victim", i))
        for i in range(500)
    ]

    def massacre():
        for event in victims:
            event.cancel()

    sched.schedule(1.0, massacre)
    keepers = [5.0, 12.0, 400.0]
    for t in keepers:
        sched.schedule(t, fired.append, ("keeper", t))
    sched.drain()
    assert fired == [("keeper", t) for t in keepers]


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=50),
                          st.booleans()), max_size=60))
def test_property_order_survives_random_cancels(items):
    sched = Scheduler()
    fired = []
    events = []
    for delay, _ in items:
        events.append(sched.schedule(delay, fired.append, delay))
    for event, (_, cancel) in zip(events, items):
        if cancel:
            event.cancel()
    sched.drain()
    # Stable sort of the survivors by delay equals firing order.
    expected = [d for d, _ in sorted(
        [(d, i) for i, (d, c) in enumerate(items) if not c],
        key=lambda pair: (pair[0], pair[1]),
    )]
    assert fired == expected
    assert sched.pending_count == 0


def test_cancel_minimum_event():
    """Cancelling the queue head must not fire it nor disturb the rest."""
    sched = Scheduler()
    fired = []
    head = sched.schedule_at(1.0, fired.append, "head")
    sched.schedule_at(2.0, fired.append, "second")
    sched.schedule_at(3.0, fired.append, "third")
    head.cancel()
    sched.run()
    assert fired == ["second", "third"]
    assert sched.now == 3.0
    assert sched.pending_count == 0


def test_cancel_all_then_run_is_noop():
    sched = Scheduler()
    fired = []
    handles = [sched.schedule_at(float(i), fired.append, i) for i in range(10)]
    for handle in handles:
        handle.cancel()
    assert sched.run() == 0
    assert fired == []
    assert sched.pending_count == 0


def test_random_cancels_fire_exactly_the_survivors():
    rng = random.Random(5)
    sched = Scheduler()
    fired = []
    handles = [
        sched.schedule_at(rng.random() * 50.0, fired.append, i)
        for i in range(400)
    ]
    cancelled = set()
    for i in rng.sample(range(400), 150):
        handles[i].cancel()
        cancelled.add(i)
    sched.run()
    assert set(fired) == set(range(400)) - cancelled
    assert sched.pending_count == 0


def _interleaved_burst(sched, base, n=1000):
    """Schedule ``n`` entries, then cancel every other one."""
    handles = [
        sched.schedule_at(base + i * 1e-6, lambda: None) for i in range(n)
    ]
    for handle in handles[::2]:
        handle.cancel()


def test_compaction_fires_at_exactly_half_cancelled():
    """Regression: interleaved cancellation parks the cancelled fraction
    at *exactly* 1/2 (each burst schedules N and cancels N/2, so the
    counter can reach but never exceed half).  A strictly-greater
    trigger never fires on that pattern and the queue retains one dead
    entry per live one forever; the at-least-half trigger reclaims them.
    """
    sched = Scheduler()
    _interleaved_burst(sched, 1000.0)
    assert sched.pending_count == 500
    # Without the fix: 1000 retained (500 live + 500 cancelled, parked
    # at exactly half).  With it: the final cancel reaches the at-least-
    # half trigger and the burst's garbage is dropped on the spot.
    assert len(sched._heap) <= 500 + 2 * sched._COMPACT_MIN
    sched.run()
    assert sched.pending_count == 0


def test_compaction_bounds_garbage_across_many_bursts():
    """Long-run invariant: retained cancelled entries never exceed the
    live population (plus the small-heap floor), no matter how many
    bursty cancellation rounds run."""
    sched = Scheduler()
    for round_no in range(40):
        _interleaved_burst(sched, 1000.0 * (round_no + 1), n=100)
        live = sched.pending_count
        assert len(sched._heap) - live <= live + 2 * sched._COMPACT_MIN
    assert sched.pending_count == 2000
    sched.run()
    assert sched.pending_count == 0


def test_compaction_during_run_from_live_pops():
    """Cancellations whose fraction crosses 1/2 only because live events
    popped (no further cancel() calls) are still reclaimed by the run
    loop's own compaction check."""
    sched = Scheduler()
    for i in range(300):
        sched.schedule_at(float(i), lambda: None)
    far = [sched.schedule_at(10_000.0 + i, lambda: None) for i in range(200)]
    for handle in far:
        handle.cancel()
    # 200 cancelled of 500: under half, _note_cancel does not compact.
    assert len(sched._heap) == 500
    sched.run(until=299.0)
    # All 300 live entries fired; the run loop must have compacted the
    # 200 cancelled stragglers rather than retaining them indefinitely.
    assert sched.pending_count == 0
    assert len(sched._heap) <= 2 * sched._COMPACT_MIN


# ----------------------------------------------------------------------
# Empty-queue behaviour
# ----------------------------------------------------------------------

def test_empty_queue_drain():
    sched = Scheduler()
    assert sched.drain() == 0
    assert sched.pending_count == 0
    assert sched.now == 0.0
    assert sched.step() is False


def test_run_until_on_empty_queue_advances_clock():
    sched = Scheduler()
    sched.run(until=12.5)
    assert sched.now == 12.5
    # Queue drained mid-run: later events still fire on a fresh run.
    fired = []
    sched.schedule(1.0, fired.append, "x")
    sched.run()
    assert fired == ["x"]
    assert sched.now == 13.5


# ----------------------------------------------------------------------
# Fire-and-forget posting: heap entries without an Event
# ----------------------------------------------------------------------

def test_random_workload_fires_everything_posted():
    rng = random.Random(42)
    sched = Scheduler()
    fired = []
    for i in range(2000):
        sched.post_at(rng.random() * 1000.0, fired.append, i)
    sched.run()
    assert len(fired) == 2000
    assert sched.pending_count == 0


def test_post_constructs_no_event(monkeypatch):
    built = []
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sched = Scheduler()
    fired = []
    for i in range(50):
        sched.post_at(1.0 + i, fired.append, i)
        sched.post(0.5 + i, fired.append, -i)
    assert built == []
    handle = sched.schedule_at(1.0, fired.append, "handle")
    assert built == [handle]
    sched.run()
    assert len(fired) == 101
    assert built == [handle]
    assert sched.pool_stats is None  # the name the benchmark reads


def test_handle_free_and_handle_entries_interleave_through_compaction():
    # Posts (no Event) and schedules (Event in slot 4) share times; most
    # handles are cancelled, enough to compact once from cancel() and
    # once more from the run loop's live pops.  Survivors fire in seq
    # order, compaction drops only cancelled handles, and pending_count
    # stays exact throughout.
    sched = Scheduler()
    compact = sched._compact
    handle_free = []  # (before, after) counts around each compaction

    def counting_compact():
        before = sum(1 for entry in sched._heap if entry[4] is None)
        compact()
        after = sum(1 for entry in sched._heap if entry[4] is None)
        handle_free.append((before, after))

    sched._compact = counting_compact
    fired = []
    handles = []
    expected = []
    n = 16 * sched._COMPACT_MIN
    for i in range(n):
        time = float(i // 8)  # runs of eight entries share a time
        if i % 4:
            handles.append((i, sched.schedule_at(time, fired.append, i)))
        else:
            sched.post_at(time, fired.append, i)
            expected.append(i)
    assert sched.pending_count == n
    cancelled = 0
    for k, (i, handle) in enumerate(handles):
        if k % 6:
            handle.cancel()
            cancelled += 1
            assert sched.pending_count == n - cancelled
        else:
            expected.append(i)
    assert len(handle_free) == 1  # compacted from cancel()
    # the cancels after that compaction are still parked in the heap.
    assert len(sched._heap) - sched.pending_count > sched._COMPACT_MIN
    expected.sort()
    survivors = n - cancelled
    for already in range(0, survivors, 7):
        assert sched.pending_count == survivors - already
        assert sched.run(max_events=7) == min(7, survivors - already)
        assert fired == expected[:already + 7]
    assert len(handle_free) == 2  # and again from the run loop
    assert all(before == after > 0 for before, after in handle_free)
    assert sched.pending_count == 0
    assert sched._heap == []
