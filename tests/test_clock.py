"""Unit tests for Lamport clocks and timestamps."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.clock import LamportClock, Timestamp
from repro.errors import ConfigurationError
from repro.mutex.l2 import GrantPayload


def test_tick_monotonically_increases():
    clock = LamportClock("a")
    stamps = [clock.tick() for _ in range(5)]
    counters = [ts.counter for ts in stamps]
    assert counters == [1, 2, 3, 4, 5]


def test_witness_advances_past_received():
    clock = LamportClock("a")
    result = clock.witness(Timestamp(10, "b"))
    assert result.counter == 11
    assert clock.tick().counter == 12


def test_witness_of_old_timestamp_still_advances():
    clock = LamportClock("a")
    clock.witness(Timestamp(10, "b"))
    result = clock.witness(Timestamp(2, "c"))
    assert result.counter == 12


def test_timestamps_totally_ordered_by_counter_then_id():
    assert Timestamp(1, "b") < Timestamp(2, "a")
    assert Timestamp(1, "a") < Timestamp(1, "b")
    assert not Timestamp(1, "a") < Timestamp(1, "a")


def test_timestamp_equality_and_hash():
    assert Timestamp(3, "x") == Timestamp(3, "x")
    assert len({Timestamp(3, "x"), Timestamp(3, "x")}) == 1


def test_timestamp_survives_copy_deepcopy_and_pickle():
    """A first step to forkable simulations: every L2 grant carries a
    Timestamp, so a copied system must be able to copy one."""
    ts = Timestamp(3, "mss-1")
    grant = GrantPayload("mh-0", "mss-1", ts)
    clones = [copy.copy(ts), copy.deepcopy(ts),
              pickle.loads(pickle.dumps(ts)),
              copy.deepcopy(grant).request_ts,
              pickle.loads(pickle.dumps(grant)).request_ts]
    for clone in clones:
        assert clone == ts and type(clone) is Timestamp
        assert (clone.counter, clone.node_id) == (3, "mss-1")


def test_peek_does_not_advance():
    clock = LamportClock("a")
    clock.tick()
    assert clock.peek() == clock.peek()
    assert clock.counter == 1


def test_empty_node_id_rejected():
    with pytest.raises(ConfigurationError):
        LamportClock("")


@given(st.lists(st.tuples(st.integers(0, 1000),
                          st.text(min_size=1, max_size=3)), min_size=2,
                max_size=30))
def test_property_total_order_is_consistent(pairs):
    stamps = [Timestamp(counter, node) for counter, node in pairs]
    ordered = sorted(stamps)
    for first, second in zip(ordered, ordered[1:]):
        assert first < second or first == second
    # Sorting matches lexicographic order on the tuples.
    assert [(ts.counter, ts.node_id) for ts in ordered] == sorted(
        (counter, node) for counter, node in pairs
    )


@given(st.lists(st.integers(0, 100), max_size=30))
def test_property_clock_exceeds_everything_witnessed(counters):
    clock = LamportClock("me")
    for counter in counters:
        clock.witness(Timestamp(counter, "other"))
    if counters:
        assert clock.counter > max(counters)


@given(st.lists(st.integers(0, 100), max_size=30))
def test_property_merge_moves_the_counter_exactly_as_witness(counters):
    merged, witnessed = LamportClock("me"), LamportClock("me")
    for counter in counters:
        assert merged.merge(Timestamp(counter, "other")) is None
        stamp = witnessed.witness(Timestamp(counter, "other"))
        assert merged.peek() == stamp
