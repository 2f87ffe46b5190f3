"""The mobile support station: cell management and handoff.

The MSS side of the paper's Section 2 mobility protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.errors import ProtocolError
from repro.hosts.base import Host
from repro.hosts.system import (
    DisconnectPayload,
    FindDisconnectQuery,
    FindDisconnectReply,
    HandoffReply,
    HandoffRequest,
    JoinPayload,
    KIND_DISCONNECT,
    KIND_FIND_DISCONNECT_QUERY,
    KIND_FIND_DISCONNECT_REPLY,
    KIND_HANDOFF_REPLY,
    KIND_HANDOFF_REQUEST,
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

JoinListener = Callable[[str, Optional[str]], None]
LeaveListener = Callable[[str], None]


class HandoffParticipant:
    """Interface for protocols that keep per-MH state at MSSs.

    When a MH moves (or reconnects), the new MSS pulls state from the
    previous one; each registered participant contributes its share
    under its own name.
    """

    #: unique name keying this participant's share of the handoff state.
    name = "participant"

    def handoff_state(self, mh_id: str) -> object:
        """State to transfer for ``mh_id`` (``None`` when there is none).

        Called at the *previous* MSS; the participant should drop its
        local copy when it returns state.
        """
        return None

    def install_handoff_state(self, mh_id: str, state: object) -> None:
        """Install transferred state at the *new* MSS."""


class MobileSupportStation(Host):
    """A fixed host serving one wireless cell.

    Maintains the list of local MHs, the per-MH "disconnected" flags of
    Section 2, and runs the handoff procedure when an arriving MH names
    its previous MSS.  Protocol objects subscribe to join/leave/
    disconnect events and register :class:`HandoffParticipant` shares.
    """

    def __init__(self, host_id: str, network: "Network") -> None:
        super().__init__(host_id, network)
        self.local_mhs: Set[str] = set()
        #: MHs that disconnected in this cell and have not reconnected.
        self.disconnected_mhs: Set[str] = set()
        self._join_listeners: List[JoinListener] = []
        self._leave_listeners: List[LeaveListener] = []
        self._handoff_participants: Dict[str, HandoffParticipant] = {}
        self.register_handler(KIND_LEAVE, self._on_leave)
        self.register_handler(KIND_JOIN, self._on_join)
        self.register_handler(KIND_DISCONNECT, self._on_disconnect)
        self.register_handler(KIND_RECONNECT, self._on_reconnect)
        self.register_handler(KIND_HANDOFF_REQUEST, self._on_handoff_request)
        self.register_handler(KIND_HANDOFF_REPLY, self._on_handoff_reply)
        self.register_handler(
            KIND_FIND_DISCONNECT_QUERY, self._on_find_disconnect_query
        )
        self.register_handler(
            KIND_FIND_DISCONNECT_REPLY, self._on_find_disconnect_reply
        )

    def _arrived_while_crashed(self, message: Message) -> None:
        # A crashed station neither receives nor transmits: messages
        # already in flight toward it (wired or wireless) vanish on
        # arrival.
        self.network.fault(
            "msg.to_crashed_mss", "fault.drop", scope=message.scope,
            src=message.src, dst=self.host_id, kind=message.kind,
            parent=message.trace_id, reason="msg.to_crashed_mss",
        )

    # ------------------------------------------------------------------
    # Protocol attachment points
    # ------------------------------------------------------------------

    def add_join_listener(self, listener: JoinListener) -> None:
        """Invoke ``listener(mh_id, prev_mss_id)`` after each join."""
        self._join_listeners.append(listener)

    def add_leave_listener(self, listener: LeaveListener) -> None:
        """Invoke ``listener(mh_id)`` after each leave."""
        self._leave_listeners.append(listener)

    def add_handoff_participant(
        self, participant: HandoffParticipant
    ) -> None:
        """Register a protocol's share of per-MH handoff state."""
        if participant.name in self._handoff_participants:
            raise ProtocolError(
                f"{self.host_id}: handoff participant "
                f"{participant.name!r} already registered"
            )
        self._handoff_participants[participant.name] = participant

    # ------------------------------------------------------------------
    # Cell membership
    # ------------------------------------------------------------------

    def admit_initial(self, mh_id: str) -> None:
        """Admit a MH during simulation setup (no join message)."""
        self.local_mhs.add(mh_id)

    def is_local(self, mh_id: str) -> bool:
        """Whether ``mh_id`` is currently in this cell.

        Consults the population store for passive (array-backed) MHs,
        so protocols probing cell membership never force a promotion.
        """
        if mh_id in self.local_mhs:
            return True
        population = self.network.population
        return population is not None and population.passive_local(
            mh_id, self.host_id
        )

    def note_mh_vanished(self, mh_id: str) -> None:
        """The cell noticed ``mh_id`` go silent (the host crashed).

        Models the station's local liveness detection: no message is
        exchanged, but the MH is recorded as disconnected here so that a
        later reconnect -- direct or via the broadcast
        ``find_disconnect`` query -- finds the Section 2 flag.  A crashed
        station keeps no such state (its sets were already cleared).
        """
        if self.crashed:
            return
        self.local_mhs.discard(mh_id)
        self.disconnected_mhs.add(mh_id)

    # ------------------------------------------------------------------
    # Sending helpers
    # ------------------------------------------------------------------

    def send_fixed(self, dst_mss_id: str, kind: str, payload: object,
                   scope: str) -> None:
        """Send a message to another MSS over the static network."""
        self.network.send_fixed(
            Message(kind, self.host_id, dst_mss_id, payload, scope)
        )

    def send_to_local_mh(
        self, mh_id: str, kind: str, payload: object, scope: str
    ) -> None:
        """One wireless hop to a MH currently in this cell."""
        self.network.send_wireless_down(
            self.host_id,
            mh_id,
            Message(kind, self.host_id, mh_id, payload, scope),
        )

    def send_to_mh(
        self,
        mh_id: str,
        kind: str,
        payload: object,
        scope: str,
        on_delivered=None,
        on_disconnected=None,
    ) -> None:
        """Deliver to a MH wherever it is (search + forward + wireless)."""
        self.network.send_to_mh(
            self.host_id,
            mh_id,
            Message(kind, self.host_id, mh_id, payload, scope),
            on_delivered=on_delivered,
            on_disconnected=on_disconnected,
        )

    # ------------------------------------------------------------------
    # Mobility protocol handlers
    # ------------------------------------------------------------------

    def _on_leave(self, message: Message) -> None:
        payload: LeavePayload = message.payload
        self.local_mhs.discard(payload.mh_id)
        for listener in self._leave_listeners:
            listener(payload.mh_id)

    def _on_join(self, message: Message) -> None:
        payload: JoinPayload = message.payload
        self.local_mhs.add(payload.mh_id)
        self.network.notify_mh_joined(payload.mh_id, self.host_id)
        if payload.prev_mss_id and payload.prev_mss_id != self.host_id:
            self.send_fixed(
                payload.prev_mss_id,
                KIND_HANDOFF_REQUEST,
                HandoffRequest(payload.mh_id, self.host_id),
                MOBILITY_SCOPE,
            )
        for listener in self._join_listeners:
            listener(payload.mh_id, payload.prev_mss_id)

    def _on_disconnect(self, message: Message) -> None:
        payload: DisconnectPayload = message.payload
        self.local_mhs.discard(payload.mh_id)
        self.disconnected_mhs.add(payload.mh_id)

    def _on_reconnect(self, message: Message) -> None:
        payload: ReconnectPayload = message.payload
        self.local_mhs.add(payload.mh_id)
        self.network.notify_mh_joined(payload.mh_id, self.host_id)
        if payload.prev_mss_id is not None:
            if payload.prev_mss_id == self.host_id:
                self.disconnected_mhs.discard(payload.mh_id)
            else:
                self.send_fixed(
                    payload.prev_mss_id,
                    KIND_HANDOFF_REQUEST,
                    HandoffRequest(
                        payload.mh_id, self.host_id,
                        clearing_disconnect=True,
                    ),
                    MOBILITY_SCOPE,
                )
        else:
            # The MH could not name its previous MSS: query every fixed
            # host to find the cell where it disconnected (Section 2).
            self.network.fan_out_fixed(
                self.host_id,
                [m for m in self.network.mss_ids() if m != self.host_id],
                KIND_FIND_DISCONNECT_QUERY,
                FindDisconnectQuery(payload.mh_id, self.host_id),
                MOBILITY_SCOPE,
            )
        for listener in self._join_listeners:
            listener(payload.mh_id, payload.prev_mss_id)

    def _on_handoff_request(self, message: Message) -> None:
        request: HandoffRequest = message.payload
        state = {}
        for name, participant in self._handoff_participants.items():
            share = participant.handoff_state(request.mh_id)
            if share is not None:
                state[name] = share
        was_disconnected = request.mh_id in self.disconnected_mhs
        self.disconnected_mhs.discard(request.mh_id)
        network = self.network
        if network._trace_on:
            network._batch_mss_handoff(
                MOBILITY_SCOPE, self.host_id, request.new_mss_id, None,
                None, {"mh_id": request.mh_id, "shares": sorted(state)},
            )
        self.send_fixed(
            request.new_mss_id,
            KIND_HANDOFF_REPLY,
            HandoffReply(request.mh_id, state, was_disconnected),
            MOBILITY_SCOPE,
        )

    def _on_handoff_reply(self, message: Message) -> None:
        reply: HandoffReply = message.payload
        for name, share in reply.state.items():
            participant = self._handoff_participants.get(name)
            if participant is not None:
                participant.install_handoff_state(reply.mh_id, share)

    def _on_find_disconnect_query(self, message: Message) -> None:
        query: FindDisconnectQuery = message.payload
        if query.mh_id in self.disconnected_mhs:
            self.send_fixed(
                query.reply_to,
                KIND_FIND_DISCONNECT_REPLY,
                FindDisconnectReply(query.mh_id, self.host_id),
                MOBILITY_SCOPE,
            )

    def _on_find_disconnect_reply(self, message: Message) -> None:
        reply: FindDisconnectReply = message.payload
        self.send_fixed(
            reply.mss_id,
            KIND_HANDOFF_REQUEST,
            HandoffRequest(
                reply.mh_id, self.host_id, clearing_disconnect=True
            ),
            MOBILITY_SCOPE,
        )
