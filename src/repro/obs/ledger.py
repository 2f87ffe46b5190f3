"""Append-only event ledgers: the monitor hub's hot-path half.

One :class:`LedgerSite` exists per event type in a non-recording
:class:`~repro.monitor.hub.MonitorHub`.  Hot emit sites (the network
send/deliver paths, MSS handoff, mutex CS transitions, the reliable
transport) append one fixed-shape row tuple per event to the site's
plain-list segment -- no :class:`~repro.trace.events.TraceEvent` is
constructed, no monitor runs, nothing is looked up beyond the closure
the site handed out.  All sites share *one* hub-owned segment list, so
rows land already in global emission order (the same single-threaded
execution order that allocates the monotone event ids) and the drain
pass replays them through the monitors as-is -- no per-site collection,
no merge, no sort.

A row is the 10-tuple::

    (id, parent_id, time, scope, src, dst, kind, detail, category, site)

Slot 0 carries the hub-allocated event id.  The site object rides in
the last slot so the consume loop recovers the compiled dispatch plan
(and its ``mode`` specialization) without a dict lookup.
Part of the batched observability pipeline (ROADMAP item 3: exact
monitors off the hot path).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

__all__ = ["LedgerSite", "ROW_WIDTH"]

#: number of slots in a ledger row (documented layout above).
ROW_WIDTH = 10

#: consume-loop specializations, chosen once per site by the hub when
#: the standard monitor layout is detected.  GENERIC replays through
#: the site's plan with a scratch event; PLAIN has no explicit-interest
#: targets at all (wildcard folds only); RECV_STD is a ``recv`` whose
#: plan is exactly the standard FifoOrder + ReliableDelivery pair
#: (their per-row state transitions are inlined); SEND_GATED has a
#: single kind-suffix-gated target (e.g. ``send.fixed`` feeding
#: TokenUniqueness only for ``*.token`` kinds), so the common row pays
#: one ``endswith`` instead of a scratch build.
MODE_GENERIC = 0
MODE_PLAIN = 1
MODE_RECV_STD = 2
MODE_SEND_GATED = 3

#: health-counter classes, precompiled per etype for the standard
#: consume loop (mirrors HealthMonitor.on_event's etype tests exactly).
HEALTH_NONE = 0
HEALTH_SEND = 1
HEALTH_RECV = 2
HEALTH_FAULT = 3
HEALTH_CS_ENTER = 4

#: liveness classes, precompiled per etype (mirrors
#: LivenessMonitor.on_event + its send.wireless_up kind gate).
LIVENESS_TICK = 1
LIVENESS_WIRELESS_UP = 2
LIVENESS_RESUBMIT = 3
LIVENESS_CS_ENTER = 4
LIVENESS_TOKEN_ARRIVE = 5


def health_code(etype: str) -> int:
    """Which HealthMonitor counter ``etype`` increments (0 for none)."""
    if etype.startswith("send."):
        return HEALTH_SEND
    if etype == "recv":
        return HEALTH_RECV
    if etype.startswith("fault.") or etype == "wireless.lost":
        return HEALTH_FAULT
    if etype == "cs.enter":
        return HEALTH_CS_ENTER
    return HEALTH_NONE


def liveness_code(etype: str) -> int:
    """How LivenessMonitor consumes ``etype`` (1 = clock tick only)."""
    if etype == "send.wireless_up":
        return LIVENESS_WIRELESS_UP
    if etype == "r2.resubmit":
        return LIVENESS_RESUBMIT
    if etype == "cs.enter":
        return LIVENESS_CS_ENTER
    if etype == "token.arrive":
        return LIVENESS_TOKEN_ARRIVE
    return LIVENESS_TICK


class LedgerSite:
    """Compiled per-etype state for ledger replay.

    Holds everything the consume loop needs to replay a row with
    per-event semantics: the full ordered target
    tuple (generic replay), the explicit-interest-only plan (standard
    replay, where the trailing Liveness/Health wildcards are folded
    inline), and the precompiled liveness/health class codes.
    """

    __slots__ = (
        "etype",
        "targets",
        "plan",
        "health_code",
        "liveness_code",
        "mode",
        "gate_fn",
        "gate_suffixes",
    )

    def __init__(
        self,
        etype: str,
        targets: Tuple[Tuple[Any, Optional[Tuple[str, ...]]], ...],
        plan: Optional[Tuple[Tuple[Any, Optional[Tuple[str, ...]]], ...]],
    ) -> None:
        self.etype = etype
        #: every target in per-event delivery order (explicit interests
        #: in registration order, then wildcards) as
        #: ``(on_event, kind_suffixes)`` pairs -- the generic replay.
        self.targets = targets
        #: explicit-interest targets only (wildcards folded inline by
        #: the standard consume loop); ``None`` when empty.
        self.plan = plan
        self.health_code = health_code(etype)
        self.liveness_code = liveness_code(etype)
        #: consume specialization (MODE_*); the hub upgrades it from
        #: GENERIC/PLAIN when the standard layout allows inlining.
        self.mode = MODE_PLAIN if plan is None else MODE_GENERIC
        #: MODE_SEND_GATED only: the single target and its suffixes.
        self.gate_fn = None
        self.gate_suffixes: Optional[Tuple[str, ...]] = None
