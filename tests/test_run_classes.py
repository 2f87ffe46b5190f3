"""The contracts of the classes every run builds.

A cold untraced run builds these classes before it fires one event, so
they are plain ``__slots__`` classes (or a ``NamedTuple``) rather than
dataclasses; these tests pin what callers may rely on: the value
semantics of :class:`CostModel`, the immutability of a metrics
snapshot, and that the per-message and per-event records carry no
instance ``__dict__``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.metrics import CostModel, MetricsCollector
from repro.mutex.resource import AccessRecord
from repro.net import Message, NetworkConfig
from repro.trace.events import TraceEvent


class TestCostModelIsAValue:
    def test_assignment_and_deletion_raise(self):
        model = CostModel()
        with pytest.raises(AttributeError):
            model.c_fixed = 2.0
        with pytest.raises(AttributeError):
            del model.c_search
        assert model.c_fixed == 1.0

    def test_hashable_and_equal_by_value(self):
        a = CostModel(c_fixed=2.0, c_wireless=3.0, c_search=4.0)
        b = CostModel(c_fixed=2.0, c_wireless=3.0, c_search=4.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, CostModel()}) == 2
        assert a != CostModel() and a != (2.0, 3.0, 4.0)

    def test_repr_is_unchanged(self):
        assert repr(CostModel()) == (
            "CostModel(c_fixed=1.0, c_wireless=5.0, c_search=10.0)")
        assert repr(CostModel(c_fixed=1, c_wireless=5, c_search=10)) == (
            "CostModel(c_fixed=1, c_wireless=5, c_search=10)")

    def test_pickles_and_copies(self):
        model = CostModel(c_fixed=2.0, c_wireless=3.0, c_search=4.0)
        for clone in (pickle.loads(pickle.dumps(model)),
                      copy.deepcopy(model), copy.copy(model)):
            assert clone == model and type(clone) is CostModel
            with pytest.raises(AttributeError):
                clone.c_fixed = 0.0


def test_snapshot_is_immutable_and_keeps_its_defaults():
    collector = MetricsCollector()
    collector.record_fixed("L2", count=3)
    snap = collector.snapshot()
    with pytest.raises(AttributeError):
        snap.counts = {}
    assert snap == collector.snapshot()
    assert snap.total(next(iter(snap.counts))[0], "L2") == 3
    bare = type(snap)(counts={}, energy_tx={}, energy_rx={})
    assert bare.faults == {} and bare.recovery_times == ()


def test_per_message_and_per_event_records_have_no_instance_dict():
    message = Message("k", "a", "b", "payload", "S")
    event = TraceEvent(id=0, parent_id=None, time=0.0, etype="recv")
    for record in (message, event, AccessRecord("mh-0", 1.0),
                   MetricsCollector(), NetworkConfig()):
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.no_such_field = 1


def test_message_fields_are_positional_in_contract_order():
    message = Message("k", "a", "b", "payload", "S")
    assert (message.kind, message.src, message.dst, message.payload,
            message.scope, message.wireless_seq, message.trace_id) == (
        "k", "a", "b", "payload", "S", None, None)
    assert Message("k", "a", "b").scope == "default"


def test_trace_event_builds_a_fresh_detail_dict():
    first = TraceEvent(id=0, parent_id=None, time=0.0, etype="recv")
    second = TraceEvent(id=1, parent_id=0, time=1.0, etype="recv")
    first.detail["x"] = 1
    assert second.detail == {} and first.scope == "default"
