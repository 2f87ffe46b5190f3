"""Safety monitors: the paper's correctness claims, checked per event.

Each monitor certifies one invariant the paper states (or the system
model postulates) for *whole runs*, online, while the simulation
executes — complementing the per-step unit tests and the
:class:`~repro.mutex.resource.CriticalResource` oracle:

* :class:`MutualExclusionMonitor` — at most one process inside the
  critical region per scope (Section 3's core safety property, shared
  by L1/L2/R1/R2/R2'/R2'').
* :class:`TokenUniquenessMonitor` — at most one live token per ring
  epoch (R2's token regeneration must retire, never multiply, tokens).
* :class:`RingFairnessMonitor` — R2'/R2'': no MH is served twice at
  the same ``token_val`` (the paper's "at most one access per MH per
  traversal" bound that motivates the counter).
* :class:`TokenListMonitor` — R2'' ``token_list`` bookkeeping: the
  list is immutable in transit, pruned of exactly the arriving MSS's
  pairs, appended with exactly the serviced (MSS, MH) pair, and no MH
  on the list is granted again.
* :class:`FifoOrderMonitor` — fixed (wired) channels deliver in FIFO
  order with no duplicates (the Section-2 postulate every algorithm
  builds on).
* :class:`ReliableDeliveryMonitor` — the reliable transport releases
  each logical message at most once, in sequence order, per channel.
* :class:`HandoffMonitor` — the mobility protocol loses no MH:
  every ``leave(r)`` is eventually matched by a ``join`` that names
  the cell actually left, and disconnect/reconnect pair up.
* :class:`LocationViewMonitor` — ``LV(G)`` covers every connected
  member's current MSS at quiescence and the distributed view copies
  agree with the coordinator (Section 4).

All monitors read only the event stream (plus, when bound, the live
network for ground truth) and work identically online and in offline
replay over a recorded trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.monitor.base import Monitor
from repro.trace.events import TraceEvent

__all__ = [
    "MutualExclusionMonitor",
    "TokenUniquenessMonitor",
    "RingFairnessMonitor",
    "TokenListMonitor",
    "FifoOrderMonitor",
    "ReliableDeliveryMonitor",
    "HandoffMonitor",
    "LocationViewMonitor",
]

#: R2 variant labels for which the per-traversal fairness bound holds.
_FAIR_VARIANTS = ("R2'", "R2''")


class MutualExclusionMonitor(Monitor):
    """At most one process inside the critical section, per scope.

    Watches ``cs.enter``/``cs.exit``: entering while another holder is
    inside, or exiting without being the recorded holder, is a
    violation.  This is the event-stream twin of the
    ``CriticalResource`` oracle — it works on replayed traces and on
    runs whose resource was configured not to raise.
    """

    name = "mutex-exclusivity"
    interests = ("cs.enter", "cs.exit")

    def __init__(self) -> None:
        super().__init__()
        self._holder: Dict[str, Optional[str]] = {}

    def on_event(self, event: TraceEvent) -> None:
        scope = event.scope
        if event.etype == "cs.enter":
            holder = self._holder.get(scope)
            if holder is not None:
                self.violation(
                    "mutex.exclusivity", event.time,
                    f"{event.src} entered the CS of {scope} while "
                    f"{holder} was inside",
                    scope=scope, entering=event.src, holder=holder)
            self._holder[scope] = event.src
        else:  # cs.exit
            holder = self._holder.get(scope)
            if holder != event.src:
                self.violation(
                    "mutex.exit_mismatch", event.time,
                    f"{event.src} exited the CS of {scope} but the "
                    f"recorded holder is {holder}",
                    scope=scope, exiting=event.src, holder=holder)
            self._holder[scope] = None


class TokenUniquenessMonitor(Monitor):
    """At most one live token per ring scope and epoch.

    A ``token.arrive`` marks its MSS as the holder; forwarding the
    token (any send of kind ``<scope>.token`` by the holder) releases
    it; ``r2.regenerate`` retires the old epoch.  A second arrival in
    the same epoch while a holder is recorded means two tokens
    circulate — exactly the split-brain R2's epoch guard exists to
    prevent.  An arrival from an epoch older than the live one is a
    stale token being *processed* (the fault-tolerant variant must
    discard those).
    """

    name = "token-uniqueness"
    interests = ("token.arrive", "send.fixed", "send.local",
                 "rel.send", "r2.regenerate")
    #: replicates the on_event early return for sends below: only
    #: ``*.token`` sends matter, so the hub can skip dispatch (and on
    #: the ``send.fixed`` hot path, event construction) for the rest.
    kind_gates = {
        "send.fixed": (".token",),
        "send.local": (".token",),
        "rel.send": (".token",),
    }

    def __init__(self) -> None:
        super().__init__()
        #: scope -> [holder MSS or None, live epoch]
        self._state: Dict[str, List] = {}

    def on_event(self, event: TraceEvent) -> None:
        etype = event.etype
        scope = event.scope
        if etype == "token.arrive":
            epoch = event.detail.get("epoch", 0)
            state = self._state.get(scope)
            if state is None:
                self._state[scope] = [event.src, epoch]
                return
            holder, live_epoch = state
            if epoch > live_epoch:
                state[0] = event.src
                state[1] = epoch
                return
            if epoch < live_epoch:
                self.violation(
                    "token.stale_epoch", event.time,
                    f"a token of retired epoch {epoch} was processed "
                    f"at {event.src} (live epoch {live_epoch})",
                    scope=scope, mss=event.src,
                    epoch=epoch, live_epoch=live_epoch)
                return
            if holder is not None:
                self.violation(
                    "token.uniqueness", event.time,
                    f"token arrived at {event.src} while {holder} "
                    f"already held the epoch-{epoch} token of {scope}",
                    scope=scope, arriving_at=event.src,
                    holder=holder, epoch=epoch)
            state[0] = event.src
        elif etype == "r2.regenerate":
            epoch = event.detail.get("epoch", 0)
            self._state[scope] = [None, epoch]
        else:  # a send: does it forward a held token?
            kind = event.kind
            if kind is None or not kind.endswith(".token"):
                return
            state = self._state.get(scope)
            if state is not None and state[0] == event.src:
                state[0] = None


class RingFairnessMonitor(Monitor):
    """R2'/R2'': no MH is served twice at the same ``token_val``.

    The token's counter increments once per traversal, so two
    ``cs.enter`` events with the same ``(scope, mh, token_val)`` mean
    one MH was served twice in one traversal — the unfairness a moving
    (or malicious) MH can extract from plain R2 and that the paper's
    counter rule exists to forbid.  Learns each scope's variant from
    the ``variant`` field of ``token.arrive`` and stays silent for
    plain R2 (where double service is possible by design) and for the
    non-token algorithms.
    """

    name = "ring-fairness"
    interests = ("token.arrive", "cs.enter")

    def __init__(self) -> None:
        super().__init__()
        self._variant: Dict[str, str] = {}
        self._served: Set[Tuple[str, str, int]] = set()

    def on_event(self, event: TraceEvent) -> None:
        if event.etype == "token.arrive":
            variant = event.detail.get("variant")
            if variant is not None:
                self._variant[event.scope] = variant
            return
        token_val = event.detail.get("token_val")
        if token_val is None:
            return
        if self._variant.get(event.scope) not in _FAIR_VARIANTS:
            return
        key = (event.scope, event.src, token_val)
        if key in self._served:
            self.violation(
                "ring.fairness", event.time,
                f"{event.src} entered the CS of {event.scope} twice "
                f"at token_val={token_val} (more than one access in "
                f"one traversal)",
                scope=event.scope, mh=event.src, token_val=token_val)
        else:
            self._served.add(key)


def _pairs(raw) -> List[Tuple[str, str]]:
    """Normalize a serialized token_list to comparable tuples."""
    return [tuple(pair) for pair in raw]


class TokenListMonitor(Monitor):
    """R2'' token_list bookkeeping, checked hop by hop.

    On every ``token.arrive`` the list must equal what the previous
    MSS forwarded (no mutation in transit) and the pruned list must
    drop exactly the arriving MSS's pairs; every ``token.append`` must
    add exactly the serviced ``(this MSS, MH)`` pair; and no MH still
    on the list may be granted the token again (``token.grant``) —
    the paper's "Variations" rule.  Applies only to scopes whose
    arrivals carry ``variant == "R2''"``.
    """

    name = "token-list"
    interests = ("token.arrive", "token.grant", "token.append",
                 "r2.regenerate")

    def __init__(self) -> None:
        super().__init__()
        #: scope -> {"list": [(mss, mh), ...], "epoch": int}
        self._state: Dict[str, Dict] = {}

    def on_event(self, event: TraceEvent) -> None:
        etype = event.etype
        scope = event.scope
        detail = event.detail
        if etype == "token.arrive":
            if detail.get("variant") != "R2''":
                self._state.pop(scope, None)
                return
            epoch = detail.get("epoch", 0)
            before = _pairs(detail.get("token_list_before", ()))
            after = _pairs(detail.get("token_list", ()))
            state = self._state.get(scope)
            if state is not None and state["epoch"] == epoch:
                if before != state["list"]:
                    self.violation(
                        "token_list.transit", event.time,
                        f"token_list changed in transit to {event.src}: "
                        f"forwarded {state['list']}, arrived {before}",
                        scope=scope, mss=event.src,
                        forwarded=state["list"], arrived=before)
            expected = [p for p in before if p[0] != event.src]
            if after != expected:
                self.violation(
                    "token_list.prune", event.time,
                    f"arrival at {event.src} pruned {before} to "
                    f"{after}, expected {expected}",
                    scope=scope, mss=event.src,
                    before=before, after=after, expected=expected)
            self._state[scope] = {"list": after, "epoch": epoch}
        elif etype == "token.grant":
            state = self._state.get(scope)
            if state is None:
                return
            if detail.get("epoch", 0) != state["epoch"]:
                return
            served = {mh for (_, mh) in state["list"]}
            if event.dst in served:
                self.violation(
                    "token_list.regrant", event.time,
                    f"{event.dst} granted the {scope} token while "
                    f"still on the token_list {state['list']}",
                    scope=scope, mh=event.dst,
                    token_list=state["list"])
        elif etype == "token.append":
            state = self._state.get(scope)
            if state is None:
                return
            pair = tuple(detail.get("pair", ()))
            new_list = _pairs(detail.get("token_list", ()))
            if pair and pair[0] != event.src:
                self.violation(
                    "token_list.append", event.time,
                    f"{event.src} appended the pair {pair} naming a "
                    f"different MSS",
                    scope=scope, mss=event.src, pair=list(pair))
            elif new_list != state["list"] + [pair]:
                self.violation(
                    "token_list.append", event.time,
                    f"append at {event.src} produced {new_list}, "
                    f"expected {state['list'] + [pair]}",
                    scope=scope, mss=event.src,
                    got=new_list, expected=state["list"] + [pair])
            state["list"] = new_list
        else:  # r2.regenerate: fresh empty-list token, new epoch
            self._state.pop(scope, None)


class FifoOrderMonitor(Monitor):
    """Fixed channels deliver in send order, exactly once.

    The Section-2 system model postulates FIFO channels between MSSs;
    every algorithm in the paper leans on it.  Send events carry
    monotonically increasing ids and each ``recv`` is parented to its
    send, so per fixed channel ``(src, dst)`` the parent ids of
    successive receives must be strictly increasing — a repeat is a
    duplicate delivery, a decrease is a reordering.  Wireless hops are
    excluded (their guarantee is prefix-of-sent per cell session, not
    channel-lifetime FIFO across handoffs), as are the reliable
    transport's ``rel.data``/``rel.ack`` envelopes, whose *physical*
    duplicates and retransmissions are legal — the transport's logical
    stream is checked instead (here, once released, and by
    :class:`ReliableDeliveryMonitor`).
    """

    name = "fifo-order"
    interests = ("recv",)

    _SKIP_KINDS = ("rel.data", "rel.ack")

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[Tuple[str, str], int] = {}

    def _is_mss(self, host_id: str) -> bool:
        if self.network is not None:
            return host_id in self.network._mss
        return host_id.startswith("mss")

    def on_event(self, event: TraceEvent) -> None:
        parent = event.parent_id
        if parent is None or event.kind in self._SKIP_KINDS:
            return
        src, dst = event.src, event.dst
        if src is None or dst is None:
            return
        if not (self._is_mss(src) and self._is_mss(dst)):
            return
        channel = (src, dst)
        last = self._last.get(channel)
        if last is not None and parent <= last:
            what = "duplicate" if parent == last else "reordered"
            self.violation(
                "channel.fifo", event.time,
                f"{what} delivery of {event.kind} on the fixed "
                f"channel {src}->{dst}",
                src=src, dst=dst, kind=event.kind,
                send_id=parent, last_send_id=last)
            return
        self._last[channel] = parent


class ReliableDeliveryMonitor(Monitor):
    """The reliable transport releases each message once, in order.

    Every logical submission is a ``rel.send`` carrying its per-channel
    sequence number; the matching release is the ``recv`` parented to
    that ``rel.send``.  Per channel, released sequence numbers must be
    strictly increasing: a repeat is a duplicate delivery (dedup
    failed), a decrease is an out-of-order release.  Gaps are legal —
    the transport explicitly skips sequences it gave up on.
    """

    name = "reliable-delivery"
    interests = ("rel.send", "recv")

    def __init__(self) -> None:
        super().__init__()
        #: rel.send event id -> ((src, dst), seq)
        self._sends: Dict[int, Tuple[Tuple[str, str], int]] = {}
        self._released: Dict[Tuple[str, str], int] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.etype == "rel.send":
            seq = event.detail.get("seq")
            if seq is not None:
                self._sends[event.id] = ((event.src, event.dst), seq)
            return
        meta = self._sends.get(event.parent_id)
        if meta is None:
            return
        channel, seq = meta
        last = self._released.get(channel, 0)
        if seq <= last:
            what = "duplicate" if seq == last else "out-of-order"
            self.violation(
                "reliable.exactly_once", event.time,
                f"{what} release of seq {seq} on the reliable channel "
                f"{channel[0]}->{channel[1]} (last released {last})",
                src=channel[0], dst=channel[1], seq=seq, last=last)
        else:
            self._released[channel] = seq


class HandoffMonitor(Monitor):
    """The mobility protocol loses no MH.

    Tracks each MH's lifecycle as a state machine over
    ``mh.leave``/``mh.join``/``mh.disconnect``/``mh.orphaned``/
    ``mh.reconnect``: a join must follow a leave and name the cell
    actually left (the handoff's ``prev`` pointer is how in-flight
    state chases the MH); a reconnect must follow a disconnect or
    orphaning; and at quiescence no MH may still be in transit.
    A crash (``mh.crash``) is legal from any state — it silently
    forces the host disconnected at the cell that vouches for it, and
    the eventual recovery reconnect must name that cell (or none, for
    an amnesiac host).
    Rerouted joins (the target MSS crashed mid-move) legitimately land
    elsewhere, so only the *origin* continuity is checked, never the
    destination.
    """

    name = "handoff"
    interests = ("mh.leave", "mh.join", "mh.disconnect",
                 "mh.orphaned", "mh.reconnect", "mh.crash")

    def __init__(self) -> None:
        super().__init__()
        #: mh -> (status, prev MSS); unseen MHs are connected
        self._state: Dict[str, Tuple[str, Optional[str]]] = {}

    def on_event(self, event: TraceEvent) -> None:
        mh = event.src
        status, prev = self._state.get(mh, ("connected", None))
        etype = event.etype
        if etype == "mh.leave":
            if status != "connected":
                self.violation(
                    "handoff.lifecycle", event.time,
                    f"{mh} left {event.dst} while {status}",
                    mh=mh, status=status)
            self._state[mh] = ("transit", event.dst)
        elif etype == "mh.join":
            if status != "transit":
                self.violation(
                    "handoff.lifecycle", event.time,
                    f"{mh} joined {event.dst} without a preceding "
                    f"leave (was {status})",
                    mh=mh, status=status)
            else:
                claimed = event.detail.get("prev")
                if claimed != prev:
                    self.violation(
                        "handoff.continuity", event.time,
                        f"{mh} joined {event.dst} claiming to come "
                        f"from {claimed}, but it left {prev}",
                        mh=mh, claimed=claimed, left=prev)
            self._state[mh] = ("connected", None)
        elif etype == "mh.disconnect":
            if status != "connected":
                self.violation(
                    "handoff.lifecycle", event.time,
                    f"{mh} disconnected while {status}",
                    mh=mh, status=status)
            self._state[mh] = ("disconnected", event.dst)
        elif etype == "mh.orphaned":
            if status != "connected":
                self.violation(
                    "handoff.lifecycle", event.time,
                    f"{mh} was orphaned while {status}",
                    mh=mh, status=status)
            self._state[mh] = ("disconnected", event.detail.get("mss"))
        elif etype == "mh.crash":
            # A crash is legal in any state; the host ends up
            # disconnected at whichever cell vouches for it (its
            # current cell, the cell it last left mid-transit, or the
            # cell it had disconnected from).
            self._state[mh] = ("disconnected", event.detail.get("mss"))
        else:  # mh.reconnect
            if status != "disconnected":
                self.violation(
                    "handoff.lifecycle", event.time,
                    f"{mh} reconnected while {status}",
                    mh=mh, status=status)
            else:
                claimed = event.detail.get("prev")
                if (claimed is not None and prev is not None
                        and claimed != prev):
                    self.violation(
                        "handoff.continuity", event.time,
                        f"{mh} reconnected claiming previous cell "
                        f"{claimed}, but it disconnected from {prev}",
                        mh=mh, claimed=claimed, left=prev)
            self._state[mh] = ("connected", None)

    def finalize(self, now: float) -> None:
        for mh, (status, prev) in sorted(self._state.items()):
            if status == "transit":
                self.violation(
                    "handoff.lost_in_transit", now,
                    f"{mh} left {prev} and never joined another cell",
                    mh=mh, left=prev)


class LocationViewMonitor(Monitor):
    """``LV(G)`` stays consistent with ground-truth membership.

    Online, every ``lv.update`` at the coordinator is sanity-checked
    (an added MSS must be in the announced view, a deleted one must
    not).  At finalize, for every watched group: each *connected*
    member's current MSS must be covered by the coordinator's view
    (Section 4's defining property of ``LV(G)``), and every view
    copy held by a view MSS must agree with the coordinator's.
    The finalize checks need the live group objects, handed over with
    ``watch(group)``; an unwatched run, and replay, run the online
    checks only.  Nothing in the scenario pack, the CLI or the bench
    watches a group, so there ``lv.coverage`` and
    ``lv.copy_divergence`` certify nothing.
    """

    name = "location-view"
    interests = ("lv.update",)

    def __init__(self) -> None:
        super().__init__()
        self.groups = []

    def watch(self, group) -> None:
        """Add a live LocationViewGroup for finalize ground truth."""
        self.groups.append(group)

    def on_event(self, event: TraceEvent) -> None:
        detail = event.detail
        add = detail.get("add")
        delete = detail.get("delete")
        view = detail.get("view")
        if view is None:
            return
        if add is not None and add != delete and add not in view:
            self.violation(
                "lv.update", event.time,
                f"view update added {add} but the announced view "
                f"{view} does not contain it",
                scope=event.scope, add=add, view=list(view))
        if delete is not None and delete != add and delete in view:
            self.violation(
                "lv.update", event.time,
                f"view update deleted {delete} but the announced "
                f"view {view} still contains it",
                scope=event.scope, delete=delete, view=list(view))

    def finalize(self, now: float) -> None:
        for group in self.groups:
            network = getattr(group, "network", None) or self.network
            coordinator_view = group.coordinator_view()
            scope = getattr(group, "scope", "group")
            if network is not None:
                for member in group.members:
                    mh = network.mobile_host(member)
                    if not mh.is_connected:
                        continue
                    if mh.current_mss_id not in coordinator_view:
                        self.violation(
                            "lv.coverage", now,
                            f"connected member {member} is at "
                            f"{mh.current_mss_id}, which LV(G) "
                            f"{sorted(coordinator_view)} does not cover",
                            scope=scope, member=member,
                            mss=mh.current_mss_id,
                            view=sorted(coordinator_view))
            for mss_id, copy in sorted(group.view_copies.items()):
                if copy != coordinator_view:
                    self.violation(
                        "lv.copy_divergence", now,
                        f"the view copy at {mss_id} "
                        f"({sorted(copy)}) disagrees with the "
                        f"coordinator's ({sorted(coordinator_view)})",
                        scope=scope, mss=mss_id,
                        copy=sorted(copy),
                        coordinator=sorted(coordinator_view))
