"""The mobile host: lifecycle, doze mode, wireless sending helpers.

The MH side of the paper's Section 2 mobility protocol.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.errors import NotConnectedError, SimulationError
from repro.hosts.base import Host
from repro.hosts.system import (
    DisconnectPayload,
    JoinPayload,
    KIND_DISCONNECT,
    KIND_JOIN,
    KIND_LEAVE,
    KIND_RECONNECT,
    LeavePayload,
    MOBILITY_SCOPE,
    ReconnectPayload,
)
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class HostState(str, Enum):
    """Lifecycle states of a mobile host."""

    CONNECTED = "connected"
    IN_TRANSIT = "in_transit"
    DISCONNECTED = "disconnected"


class MobileHost(Host):
    """A host that can move between cells while retaining its identity.

    The MH implements its side of the Section 2 mobility protocol:
    it announces departures with ``leave(r)``, arrivals with
    ``join(mh_id, prev_mss_id)``, and voluntary disconnections with
    ``disconnect(r)`` / ``reconnect(...)``.  While in transit or
    disconnected it neither sends nor receives (enforced by the
    network's delivery checks).

    Doze mode is orthogonal to connectivity: a dozing MH still receives
    messages, but each delivery is counted as a *doze interruption* --
    the quantity the paper's R1-vs-R2 comparison argues about.
    """

    def __init__(self, host_id: str, network: "Network") -> None:
        super().__init__(host_id, network)
        self.state = HostState.DISCONNECTED
        self.current_mss_id: Optional[str] = None
        #: MSS of the cell where this MH disconnected (valid while
        #: :attr:`state` is DISCONNECTED).
        self.disconnect_mss_id: Optional[str] = None
        #: incremented on every (re)attachment; lets the network drop
        #: in-flight downlink messages from a previous residence.
        self.session = 0
        #: last downlink sequence number received in the current cell --
        #: the ``r`` reported by ``leave(r)`` / ``disconnect(r)``.
        self.last_received_seq = 0
        self.dozing = False
        self.doze_interruptions = 0
        self.moves_completed = 0
        #: ``True`` while detached because the serving MSS crashed (set
        #: by :meth:`orphan`, cleared on reconnect).
        self.orphaned = False
        #: MSS of the cell most recently left, valid while IN_TRANSIT --
        #: the only station that can vouch for a host that dies mid-move.
        self._transit_prev_mss_id: Optional[str] = None
        self._attach_listeners: list = []

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------

    @property
    def is_connected(self) -> bool:
        return self.state is HostState.CONNECTED

    @property
    def is_disconnected(self) -> bool:
        return self.state is HostState.DISCONNECTED

    @property
    def in_transit(self) -> bool:
        return self.state is HostState.IN_TRANSIT

    # ------------------------------------------------------------------
    # Attachment and movement
    # ------------------------------------------------------------------

    def add_attach_listener(self, listener) -> None:
        """Invoke ``listener()`` each time this MH (re)attaches to a
        cell -- after a move's join or after a reconnect.  Protocol
        clients use this to flush work deferred while detached (e.g. the
        L2 ``release_resource`` a disconnected holder owes)."""
        self._attach_listeners.append(listener)

    def _notify_attached(self) -> None:
        for listener in self._attach_listeners:
            listener()

    def attach_initial(self, mss_id: str) -> None:
        """Place the MH in its first cell at simulation setup.

        Bypasses the join message exchange: initial placement is part of
        constructing the system, not of its execution.
        """
        if self.state is not HostState.DISCONNECTED or self.session != 0:
            raise SimulationError(
                f"{self.host_id}: attach_initial after lifecycle started"
            )
        mss = self.network.mss(mss_id)
        self.session += 1
        self.state = HostState.CONNECTED
        self.current_mss_id = mss_id
        self.last_received_seq = 0
        mss.admit_initial(self.host_id)
        self.network.notify_mh_joined(self.host_id, mss_id)

    def move_to(self, new_mss_id: str) -> None:
        """Leave the current cell and join ``new_mss_id`` after transit.

        Sends ``leave(r)`` on the uplink, transitions to IN_TRANSIT (no
        sending or receiving), and schedules the ``join`` at the new MSS
        after the configured transit time.
        """
        if not self.is_connected:
            raise NotConnectedError(
                f"{self.host_id} cannot move while {self.state.value}"
            )
        self.network.mss(new_mss_id)  # validate destination exists
        trace = self.network._trace
        if trace.enabled:
            leave_id = self.network._batch_mh_leave(
                MOBILITY_SCOPE, self.host_id, self.current_mss_id, None,
                None, {"r": self.last_received_seq, "to": new_mss_id},
            )
            # Inline trace.context(leave_id): moves are hot enough for
            # the context-object allocation to show up in profiles.
            stack = trace._stack
            stack.append(leave_id)
            try:
                self._send_system(
                    KIND_LEAVE,
                    LeavePayload(self.host_id, self.last_received_seq),
                )
            finally:
                stack.pop()
        else:
            self._send_system(
                KIND_LEAVE,
                LeavePayload(self.host_id, self.last_received_seq),
            )
        prev_mss_id = self.current_mss_id
        self.state = HostState.IN_TRANSIT
        self.current_mss_id = None
        self._transit_prev_mss_id = prev_mss_id
        self.network.scheduler.schedule(
            self.network.config.transit_time,
            self._arrive,
            new_mss_id,
            prev_mss_id,
        )

    def _arrive(self, new_mss_id: str, prev_mss_id: Optional[str]) -> None:
        if self.crashed:
            # The host died mid-transit; the join it was carrying dies
            # with it.  Recovery goes through crash()/recover() instead.
            return
        if self.network.is_mss_crashed(new_mss_id):
            # The destination cell went dark during transit: its join
            # message would vanish, leaving the MH invisible forever.
            # Keep moving to the nearest live cell instead.
            self.network.metrics.record_fault("mh.rerouted_join")
            rerouted = self.network.next_alive_mss(new_mss_id)
            self.network.scheduler.schedule(
                self.network.config.transit_time,
                self._arrive,
                rerouted if rerouted is not None else new_mss_id,
                prev_mss_id,
            )
            return
        self.session += 1
        self.state = HostState.CONNECTED
        self.current_mss_id = new_mss_id
        self._transit_prev_mss_id = None
        self.last_received_seq = 0
        self.moves_completed += 1
        trace = self.network._trace
        if trace.enabled:
            join_id = self.network._batch_mh_join(
                MOBILITY_SCOPE, self.host_id, new_mss_id, None, None,
                {"prev": prev_mss_id},
            )
            stack = trace._stack
            stack.append(join_id)
            try:
                self._send_system(
                    KIND_JOIN, JoinPayload(self.host_id, prev_mss_id)
                )
                self._notify_attached()
            finally:
                stack.pop()
        else:
            self._send_system(
                KIND_JOIN, JoinPayload(self.host_id, prev_mss_id)
            )
            self._notify_attached()

    def disconnect(self) -> None:
        """Voluntarily detach: ``disconnect(r)`` to the local MSS."""
        if not self.is_connected:
            raise NotConnectedError(
                f"{self.host_id} cannot disconnect while {self.state.value}"
            )
        trace = self.network._trace
        if trace.enabled:
            disc_id = trace.emit(
                "mh.disconnect",
                scope=MOBILITY_SCOPE,
                src=self.host_id,
                dst=self.current_mss_id,
                r=self.last_received_seq,
            )
            with trace.context(disc_id):
                self._send_system(
                    KIND_DISCONNECT,
                    DisconnectPayload(self.host_id, self.last_received_seq),
                )
        else:
            self._send_system(
                KIND_DISCONNECT,
                DisconnectPayload(self.host_id, self.last_received_seq),
            )
        self.disconnect_mss_id = self.current_mss_id
        self.state = HostState.DISCONNECTED
        self.current_mss_id = None

    def orphan(self) -> None:
        """Detach silently because the serving MSS crashed.

        Unlike :meth:`disconnect`, no ``disconnect(r)`` message is sent
        (there is nobody to receive it) and no MSS records the
        disconnection.  The fault injector later drives the reconnect
        without a previous-MSS hint.  No-op unless currently connected.
        """
        if not self.is_connected:
            return
        if self.network._trace_on:
            self.network._trace.emit(
                "mh.orphaned",
                scope=MOBILITY_SCOPE,
                src=self.host_id,
                mss=self.current_mss_id,
            )
        self.disconnect_mss_id = self.current_mss_id
        self.state = HostState.DISCONNECTED
        self.current_mss_id = None
        self.orphaned = True

    def crash(self, amnesia: bool = False) -> None:
        """Kill this host: all volatile state is lost and the radio goes
        silent.

        No ``disconnect(r)`` is sent -- a dead host sends nothing -- but
        the serving cell notices the silence and records the MH as
        disconnected, exactly as Section 2's flag would after a voluntary
        disconnect.  That flag is what lets recovery reuse the ordinary
        reconnect machinery: a non-amnesiac host reconnects naming its
        old MSS (handoff pull); with ``amnesia=True`` it forgets even
        where it was and the new MSS falls back to the broadcast
        ``find_disconnect`` query.  A host that dies mid-transit is
        flagged at the cell it last left (the join in flight dies with
        it).  No-op if already crashed.
        """
        if self.crashed:
            return
        vouching_mss = (
            self.current_mss_id if self.is_connected
            else self._transit_prev_mss_id if self.in_transit
            else self.disconnect_mss_id
        )
        if self.network._trace_on:
            self.network._trace.emit(
                "mh.crash",
                scope=MOBILITY_SCOPE,
                src=self.host_id,
                mss=vouching_mss,
                amnesia=amnesia,
            )
        if vouching_mss is not None:
            self.network.mss(vouching_mss).note_mh_vanished(self.host_id)
        self.crashed = True
        self.state = HostState.DISCONNECTED
        self.current_mss_id = None
        self._transit_prev_mss_id = None
        self.orphaned = False
        #: invalidate every in-flight downlink toward the dead host.
        self.session += 1
        self.last_received_seq = 0
        self.disconnect_mss_id = None if amnesia else vouching_mss

    def recover(self, mss_id: str) -> None:
        """Bring a crashed host back up, reattaching at ``mss_id``.

        Recovery is just the Section 2 reconnect: with a remembered
        ``disconnect_mss_id`` the new MSS pulls handoff state directly;
        an amnesiac host reconnects without naming a previous MSS and
        the broadcast query finds its disconnect flag.
        """
        if not self.crashed:
            raise SimulationError(
                f"{self.host_id} cannot recover: not crashed"
            )
        self.crashed = False
        self.reconnect(mss_id, supply_prev=self.disconnect_mss_id is not None)

    def reconnect(self, mss_id: str, supply_prev: bool = True) -> None:
        """Reattach at ``mss_id``.

        When ``supply_prev`` is false the reconnect message omits the
        previous MSS id, forcing the new MSS to query every fixed host
        to find where the MH disconnected (Section 2).
        """
        if not self.is_disconnected:
            raise NotConnectedError(
                f"{self.host_id} cannot reconnect while {self.state.value}"
            )
        if self.crashed:
            raise NotConnectedError(
                f"{self.host_id} cannot reconnect while crashed"
            )
        self.network.mss(mss_id)  # validate destination exists
        if self.network.is_mss_crashed(mss_id):
            # Reconnecting into a dark cell would leave the MH believing
            # it is attached while no station serves it; pick the
            # nearest live cell instead.
            rerouted = self.network.next_alive_mss(mss_id)
            if rerouted is None:
                raise NotConnectedError(
                    f"{self.host_id} cannot reconnect: no MSS is alive"
                )
            self.network.metrics.record_fault("mh.rerouted_reconnect")
            mss_id = rerouted
        prev = self.disconnect_mss_id if supply_prev else None
        self.session += 1
        self.state = HostState.CONNECTED
        self.current_mss_id = mss_id
        self.last_received_seq = 0
        self.orphaned = False
        trace = self.network._trace
        if trace.enabled:
            rec_id = trace.emit(
                "mh.reconnect",
                scope=MOBILITY_SCOPE,
                src=self.host_id,
                dst=mss_id,
                prev=prev,
            )
            with trace.context(rec_id):
                self._send_system(
                    KIND_RECONNECT, ReconnectPayload(self.host_id, prev)
                )
                self._notify_attached()
        else:
            self._send_system(
                KIND_RECONNECT, ReconnectPayload(self.host_id, prev)
            )
            self._notify_attached()

    # ------------------------------------------------------------------
    # Doze mode
    # ------------------------------------------------------------------

    def doze(self) -> None:
        """Enter doze mode (reduced activity; deliveries count as
        interruptions)."""
        self.dozing = True

    def wake(self) -> None:
        """Leave doze mode."""
        self.dozing = False

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send_to_mss(self, kind: str, payload: object, scope: str) -> None:
        """Send a protocol message to the current local MSS (uplink)."""
        if not self.is_connected:
            raise NotConnectedError(
                f"{self.host_id} cannot send while {self.state.value}"
            )
        self.network.send_wireless_up(
            self.host_id,
            Message(kind, self.host_id, self.current_mss_id, payload, scope),
        )

    def note_downlink_delivery(self, seq: Optional[int]) -> None:
        """Record the sequence number of a successfully received
        downlink message (called by the network)."""
        if seq is not None:
            self.last_received_seq = seq

    def handle_message(self, message: Message) -> None:
        if self.dozing:
            self.doze_interruptions += 1
        super().handle_message(message)

    def _send_system(self, kind: str, payload: object) -> None:
        # leave/disconnect go out while still attached; join/reconnect
        # right after the state flip -- in all four cases the MH counts
        # as connected, so the plain uplink applies.
        self.network.send_wireless_up(
            self.host_id,
            Message(kind, self.host_id, self.current_mss_id, payload,
                    MOBILITY_SCOPE),
        )
