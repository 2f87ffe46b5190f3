"""The fault injector: executes a :class:`FaultPlan` against a network.

The injector is consulted by :class:`~repro.net.Network` on every
fixed-network transmission (drop / duplicate / delay / partition) and
drives the scheduled MSS crash and recovery events, including the
orphan-rejoin protocol: every MH local to a crashing MSS is silently
detached and, after ``FaultPlan.rejoin_delay``, re-registers at a
surviving MSS through the reconnect protocol of Section 2.

Protocol objects that keep per-MSS state (e.g. the R2 ring) subscribe
to crash/recovery events via :meth:`FaultInjector.add_crash_listener`
so they can discard state lost with the crashed station.

The injector keeps no tally of its own: each crash, recovery, listener
failure and (via the :class:`FaultDecision` reason) dropped message is
one :meth:`Network.fault` call, read back with ``metrics.fault_total``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.messages import Message
    from repro.net.network import Network

CrashListener = Callable[[str], None]


@dataclass
class FaultDecision:
    """Outcome of consulting the injector for one transmission."""

    drop: bool = False
    reason: str = ""
    duplicates: int = 0
    extra_delay: float = 0.0


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running simulation.

    Construct with a plan, then install on a network via
    :meth:`Network.install_faults` (or let
    :func:`repro.faults.apply_fault_plan` wire both the injector and the
    reliable layer).  All fault decisions draw from a private RNG seeded
    by ``plan.seed``, so a plan misbehaves identically on every run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.network: Optional["Network"] = None
        self._rng = random.Random(plan.seed)
        self._crashed: Set[str] = set()
        self._crash_listeners: List[CrashListener] = []
        self._crash_times: Dict[str, float] = {}
        self._pending_orphans: Dict[str, Set[str]] = {}
        self._mh_crashed: Set[str] = set()
        self._mh_crash_listeners: List[CrashListener] = []
        self._mh_recovery_listeners: List[CrashListener] = []
        #: cell each crashed MH was (last) served by -- where it
        #: physically still sits, and so where it wakes up.
        self._mh_crash_cells: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, network: "Network") -> None:
        """Attach to ``network`` and schedule the plan's crash events.

        Called by :meth:`Network.install_faults`; do not call directly.
        """
        if self.network is not None:
            raise SimulationError("fault injector already bound")
        known_mss = set(network.mss_ids())
        for crash in self.plan.crashes:
            if crash.mss_id not in known_mss:
                raise ConfigurationError(
                    f"fault plan crashes unknown MSS {crash.mss_id!r}"
                )
        known_mh = set(network.mh_ids())
        for mh_crash in self.plan.mh_crashes:
            if mh_crash.mh_id not in known_mh:
                raise ConfigurationError(
                    f"fault plan crashes unknown MH {mh_crash.mh_id!r}"
                )
        self.network = network
        for crash in self.plan.crashes:
            network.scheduler.post_at(
                crash.at, self._crash, crash.mss_id
            )
            if crash.recover_at is not None:
                network.scheduler.post_at(
                    crash.recover_at, self._recover, crash.mss_id
                )
        for mh_crash in self.plan.mh_crashes:
            network.scheduler.post_at(
                mh_crash.at, self._crash_mh, mh_crash.mh_id,
                mh_crash.amnesia,
            )
            if mh_crash.recover_at is not None:
                network.scheduler.post_at(
                    mh_crash.recover_at, self._recover_mh, mh_crash.mh_id
                )

    def add_crash_listener(self, listener: CrashListener) -> None:
        """Invoke ``listener(mss_id)`` right after each MSS crash."""
        self._crash_listeners.append(listener)

    def add_mh_crash_listener(self, listener: CrashListener) -> None:
        """Invoke ``listener(mh_id)`` right after each MH crash."""
        self._mh_crash_listeners.append(listener)

    def add_mh_recovery_listener(self, listener: CrashListener) -> None:
        """Invoke ``listener(mh_id)`` right after each MH recovery
        (the host has already reattached when listeners run)."""
        self._mh_recovery_listeners.append(listener)

    def _dispatch(self, listeners: List[CrashListener],
                  host_id: str, event: str) -> None:
        """Run every listener; one raising must not silence the rest.

        A listener failure is a bug in a protocol's fault handling, not
        in the fault plan -- so it is surfaced as a structured fault
        event (and counted) rather than allowed to tear down the run or,
        worse, to skip the listeners registered after it.
        """
        for listener in listeners:
            try:
                listener(host_id)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                self.network.fault(
                    "injector.listener_error", "fault.listener_error",
                    src=host_id, event=event,
                    listener=getattr(listener, "__qualname__",
                                     repr(listener)),
                    error=f"{type(exc).__name__}: {exc}",
                )

    # ------------------------------------------------------------------
    # Queries from the network
    # ------------------------------------------------------------------

    def is_crashed(self, mss_id: str) -> bool:
        """Whether ``mss_id`` is currently down."""
        return mss_id in self._crashed

    def is_mh_crashed(self, mh_id: str) -> bool:
        """Whether mobile host ``mh_id`` is currently down."""
        return mh_id in self._mh_crashed

    def decide_fixed(self, message: "Message") -> FaultDecision:
        """Fault outcome for one fixed-network transmission."""
        if self.network.is_mss_crashed(message.src):
            # A crashed station transmits nothing; the message (already
            # charged) vanishes on the wire.
            return FaultDecision(drop=True, reason="fixed.dropped_src_crashed")
        now = self.network.scheduler.now
        for partition in self.plan.partitions:
            if partition.severs(message.src, message.dst, now):
                return FaultDecision(
                    drop=True, reason="fixed.partition_dropped"
                )
        decision = FaultDecision()
        for fault in self.plan.link_faults:
            if not fault.applies(message.src, message.dst, now):
                continue
            if fault.drop and self._rng.random() < fault.drop:
                return FaultDecision(drop=True, reason="fixed.dropped")
            if fault.duplicate and self._rng.random() < fault.duplicate:
                decision.duplicates += 1
            decision.extra_delay += fault.extra_delay
        return decision

    # ------------------------------------------------------------------
    # Crash / recovery execution
    # ------------------------------------------------------------------

    def _crash(self, mss_id: str) -> None:
        if mss_id in self._crashed:
            return
        network = self.network
        mss = network.mss(mss_id)
        self._crashed.add(mss_id)
        mss.crashed = True
        # The station's cell, plus every MH whose join to it is still
        # on the air: that join lands on a dead station, so the MH
        # would believe itself attached to a cell nobody serves.
        orphans = sorted(mss.local_mhs.union(
            mh.host_id for mh in network._mh.values()
            if mh.is_connected and mh.current_mss_id == mss_id
        ))
        network.fault("mss.crash", "fault.mss_crash", src=mss_id,
                      orphans=orphans)
        self._crash_times[mss_id] = network.scheduler.now
        # Volatile cell state dies with the station.
        mss.local_mhs.clear()
        mss.disconnected_mhs.clear()
        if orphans:
            self._pending_orphans[mss_id] = set(orphans)
        for index, mh_id in enumerate(orphans):
            network.mobile_host(mh_id).orphan()
            network.metrics.record_fault("mh.orphaned")
            # Stagger the rejoins slightly so reconnect traffic does not
            # arrive as one synchronized burst.
            network.scheduler.post(
                self.plan.rejoin_delay + 0.1 * index,
                self._rejoin,
                mss_id,
                mh_id,
            )
        self._dispatch(self._crash_listeners, mss_id, "mss.crash")

    def _rejoin(self, crashed_mss_id: str, mh_id: str) -> None:
        network = self.network
        mh = network.mobile_host(mh_id)
        if mh.is_disconnected and mh.orphaned and not mh.crashed:
            alive = [
                m for m in network.mss_ids() if m not in self._crashed
            ]
            if not alive:
                network.scheduler.post(
                    self.plan.rejoin_delay, self._rejoin,
                    crashed_mss_id, mh_id,
                )
                return
            # The previous MSS is (or was) dead, so the MH cannot rely
            # on it answering a handoff: reconnect without naming it,
            # which triggers the Section 2 broadcast query.
            target = self._rng.choice(alive)
            # Traced before the reconnect it parents, counted after it:
            # the faults the reconnect records keep their place in the
            # run's first-occurrence order.
            rejoin_id = network._trace.emit(
                "fault.mh_rejoin", src=mh_id, dst=target,
                crashed_mss=crashed_mss_id,
            )
            with network._trace.context(rejoin_id):
                mh.reconnect(target, supply_prev=False)
            network.metrics.record_fault("mh.rejoined")
        pending = self._pending_orphans.get(crashed_mss_id)
        if pending is not None:
            pending.discard(mh_id)
            if not pending:
                del self._pending_orphans[crashed_mss_id]
                network.metrics.record_recovery_time(
                    network.scheduler.now
                    - self._crash_times[crashed_mss_id]
                )

    def _recover(self, mss_id: str) -> None:
        if mss_id not in self._crashed:
            return
        self._crashed.discard(mss_id)
        self.network.mss(mss_id).crashed = False
        self.network.fault("mss.recover", "fault.mss_recover", src=mss_id)

    # ------------------------------------------------------------------
    # MH crash / recovery execution
    # ------------------------------------------------------------------

    def _crash_mh(self, mh_id: str, amnesia: bool) -> None:
        if mh_id in self._mh_crashed:
            return
        network = self.network
        mh = network.mobile_host(mh_id)
        self._mh_crashed.add(mh_id)
        # Remember the cell the host physically sits in: amnesia wipes
        # the *host's* memory of it, not the geography.
        self._mh_crash_cells[mh_id] = (
            mh.current_mss_id if mh.is_connected
            else mh._transit_prev_mss_id if mh.in_transit
            else mh.disconnect_mss_id
        )
        self._crash_times[mh_id] = network.scheduler.now
        network.fault("mh.crash", "fault.mh_crash", src=mh_id,
                      mss=self._mh_crash_cells[mh_id], amnesia=amnesia)
        mh.crash(amnesia=amnesia)
        network.notify_mh_crashed(mh_id)
        self._dispatch(self._mh_crash_listeners, mh_id, "mh.crash")

    def _recover_mh(self, mh_id: str) -> None:
        if mh_id not in self._mh_crashed:
            return
        network = self.network
        mh = network.mobile_host(mh_id)
        # Wake up in the cell where the host died; if that station is
        # (still) down, reconnect() reroutes to the nearest live one,
        # and only a host with no cell at all picks a random survivor.
        target = self._mh_crash_cells.pop(mh_id, None)
        if target is None or (target in self._crashed
                              and network.next_alive_mss(target) is None):
            alive = [
                m for m in network.mss_ids() if m not in self._crashed
            ]
            if not alive:
                self._mh_crash_cells[mh_id] = target
                network.scheduler.post(
                    self.plan.rejoin_delay, self._recover_mh, mh_id
                )
                return
            target = self._rng.choice(alive)
        self._mh_crashed.discard(mh_id)
        recover_id = network.fault(
            "mh.recover", "fault.mh_recover", src=mh_id, dst=target
        )
        with network._trace.context(recover_id):
            mh.recover(target)
        self._dispatch(self._mh_recovery_listeners, mh_id, "mh.recover")
