"""Unit tests for the free-list object pools (repro.pool)."""

from __future__ import annotations

import pytest

import repro.pool as pool_mod
from repro.pool import Pool, PoolError, debug_enabled, set_debug


class Thing:
    def __init__(self) -> None:
        self.payload = None


def test_acquire_creates_then_reuses():
    pool = Pool(Thing, name="t")
    a = pool.acquire()
    assert pool.stats() == {"created": 1, "reused": 0, "released": 0, "free": 0}
    pool.release(a)
    b = pool.acquire()
    assert b is a
    assert pool.stats() == {"created": 1, "reused": 1, "released": 1, "free": 0}


def test_reset_hook_runs_on_release():
    cleared = []

    def reset(obj):
        cleared.append(obj)
        obj.payload = None

    pool = Pool(Thing, reset=reset)
    obj = pool.acquire()
    obj.payload = "heavy protocol state"
    pool.release(obj)
    assert cleared == [obj]
    assert obj.payload is None


def test_capacity_bounds_retained_blocks():
    pool = Pool(Thing, capacity=2)
    objs = [pool.acquire() for _ in range(5)]
    for obj in objs:
        pool.release(obj)
    # Only `capacity` objects are shelved; the rest went to the GC.
    assert pool.free_count == 2
    assert pool.stats()["released"] == 5


def test_debug_double_release_raises():
    pool = Pool(Thing, debug=True)
    obj = pool.acquire()
    pool.release(obj)
    with pytest.raises(PoolError):
        pool.release(obj)


def test_debug_foreign_release_raises():
    pool = Pool(Thing, debug=True)
    with pytest.raises(PoolError):
        pool.release(Thing())


def test_debug_leak_detection():
    pool = Pool(Thing, debug=True)
    kept = pool.acquire()
    with pytest.raises(PoolError):
        pool.check_leaks()
    pool.release(kept)
    pool.check_leaks()  # no outstanding objects: passes
    assert pool.outstanding_count == 0


def test_outstanding_count_requires_debug():
    pool = Pool(Thing, debug=False)
    with pytest.raises(PoolError):
        pool.outstanding_count


def test_non_debug_mode_skips_tracking():
    pool = Pool(Thing, debug=False)
    obj = pool.acquire()
    pool.release(obj)
    # No tracking: a double release is not detected (documented trade),
    # but the free list must still never hand the same object out twice
    # in correct usage.
    assert pool._outstanding is None


def test_set_debug_affects_new_pools_only(monkeypatch):
    monkeypatch.setattr(pool_mod, "_DEBUG", False)
    before = Pool(Thing)
    set_debug(True)
    assert debug_enabled()
    after = Pool(Thing)
    set_debug(False)
    assert before._outstanding is None
    assert after._outstanding is not None


def test_scheduler_pool_leak_free_in_debug_mode():
    """End-to-end: a debug-mode scheduler run acquires and releases
    every pooled event (no leaks, no double releases)."""
    from repro.sim import Scheduler

    sched = Scheduler()
    sched._pool = Pool(
        sched._pool._factory,
        reset=sched._pool._reset,
        capacity=64,
        debug=True,
    )
    for i in range(500):
        sched.post_at(float(i % 7) + i * 1e-3, lambda: None)
    sched.run()
    sched._pool.check_leaks()
    stats = sched._pool.stats()
    assert stats["released"] == stats["created"] + stats["reused"]
