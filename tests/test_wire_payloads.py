"""The wire-payload convention, stated once and checked class by class.

What rides in ``Message.payload`` is a ``typing.NamedTuple`` defined
next to its protocol: as cheap to build as an immutable record gets,
and immutable because the M-1 copies of one broadcast share a single
payload object -- a handler that assigned to it would rewrite what
every later receiver sees.  ``@dataclass(frozen=True)`` used to give
that guarantee class by class; this file enforces it for every payload
type that actually crosses the wire.

The census is taken at the receive side: every walkthrough scenario
plus three chaos scenarios run with a recorder on
:meth:`Host.handle_message`, the single frame every arrival (the inner
messages of reliable envelopes included) goes through.
"""

from __future__ import annotations

import re

import pytest

from repro.hosts.base import Host
from repro.mutex.ring_core import Token
from repro.scenario import builtin_registry
from repro.scenario import run_scenario as run_pack_scenario
from repro.trace.walkthroughs import TOUR, traced_run

PACK_SCENARIOS = ("kitchen_sink", "localized_groups_churn", "proxy_churn")

#: The ring token is state that *travels*, not a record of it: one
#: object circulates, each holder advances its counters in place, and
#: it is never broadcast, so no two receivers ever share it.
MUTABLE_BY_DESIGN = {Token}

_REPR_SHAPE = re.compile(r"^(\w+)\((\w+)=.*\)$", re.DOTALL)


@pytest.fixture(scope="module")
def payloads_seen():
    """One sample payload object per ``repro.*`` payload type handled."""
    seen = {}
    dispatch = Host.handle_message

    def recording(host, message):
        payload = message.payload
        if (payload is not None
                and type(payload).__module__.startswith("repro.")):
            seen.setdefault(type(payload), payload)
        dispatch(host, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Host, "handle_message", recording)
        for name in TOUR:
            traced_run(name)
        registry = builtin_registry()
        for name in PACK_SCENARIOS:
            run_pack_scenario(registry.get(name), seed=7)
    return seen


def test_census_reaches_every_layer_that_defines_payloads(payloads_seen):
    """The runs are wide enough to mean something: mobility, both mutex
    families, reliable transport, groups, proxies and recovery all put
    their payload types on the wire."""
    modules = {cls.__module__ for cls in payloads_seen}
    assert modules >= {
        "repro.hosts.system",
        "repro.mutex.lamport_core",
        "repro.mutex.l2",
        "repro.mutex.r2",
        "repro.net.relay",
        "repro.net.reliable",
        "repro.groups.location_view",
        "repro.proxy.messenger",
        "repro.recovery.manager",
    }, sorted(modules)
    assert len(payloads_seen) >= 25


def test_every_wire_payload_is_an_immutable_named_tuple(payloads_seen):
    for cls, sample in sorted(payloads_seen.items(),
                              key=lambda item: item[0].__qualname__):
        if cls in MUTABLE_BY_DESIGN:
            continue
        where = f"{cls.__module__}.{cls.__qualname__}"
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), (
            f"{where} rides in Message.payload but is not a NamedTuple")
        # An empty NamedTuple is falsy; `if message.payload` would lie.
        assert len(cls._fields) >= 1 and sample, where
        first = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(sample, first, getattr(sample, first))
        # The shape the trace exporters and walkthroughs print.
        shape = _REPR_SHAPE.match(repr(sample))
        assert shape and shape.group(1) == cls.__name__, repr(sample)
        assert shape.group(2) == first, repr(sample)


def test_the_exemption_list_is_not_stale(payloads_seen):
    assert MUTABLE_BY_DESIGN <= set(payloads_seen)
