"""Always-inform strategy (Section 4.2).

Every member MH maintains a location directory ``LD(G)`` mapping each
member to its current MSS.  A group message consults the directory and
sends one copy to each member's MSS over the fixed network:
``(|G|-1) * (2*C_wireless + C_fixed)`` per message -- the search is
replaced by a cheap fixed hop.  The price is paid on *moves*: after
every move the mover floods a location update to all members at the
same per-copy cost, so the effective cost per group message is
``(MOB/MSG + 1) * (|G|-1) * (2*C_wireless + C_fixed)`` -- the
mobility-to-message ratio governs the scheme's efficiency.

This extends the per-MH location directory of the network-layer
protocol in the paper's reference [6] to groups.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple

from repro.groups.base import GroupStrategy
from repro.net.messages import Message
from repro.net.relay import MhRelay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.search import SearchOutcome


class DirectedCopy(NamedTuple):
    """A copy addressed to one member at its believed location."""

    dst_mh_id: str
    dst_mss_id: str
    payload: object


class LocationUpdate(NamedTuple):
    """'I moved to ``new_mss_id``' -- updates the receivers' LD(G)."""

    mover_mh_id: str
    new_mss_id: str


class Hello(NamedTuple):
    """A joining member announces itself and its location
    (membership extension; delivered via search, the newcomer has no
    directory yet)."""

    mh_id: str
    mss_id: str


class Welcome(NamedTuple):
    """An existing member tells a newcomer its own location."""

    mh_id: str
    mss_id: str


class Goodbye(NamedTuple):
    """A leaving member asks the others to drop its directory entry."""

    mh_id: str


class AlwaysInformGroup(GroupStrategy):
    """The eager location-directory strategy."""

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str = "group-ai",
    ) -> None:
        super().__init__(network, members, scope)
        self.kind_route = f"{scope}.route"
        self.kind_forward = f"{scope}.forward"
        self.kind_update = f"{scope}.update"
        self.kind_hello = f"{scope}.hello"
        self.kind_welcome = f"{scope}.welcome"
        self.kind_goodbye = f"{scope}.goodbye"
        #: per-member location directory: member -> (member -> MSS).
        self.directories: Dict[str, Dict[str, str]] = {}
        self._ai_wired: set = set()
        initial = {
            member: self.current_mss_of(member) for member in members
        }
        for member in members:
            self.directories[member] = dict(initial)
            self._wire_ai_member(member)
        for mss_id in network.mss_ids():
            mss = network.mss(mss_id)
            mss.register_handler(self.kind_route, self._relay)
            mss.register_handler(self.kind_forward, self._forward)
        # A newcomer has no directory yet: its hellos are searched for.
        self._hello = MhRelay(network, scope, "hello_route")
        #: deliveries that found the directory entry stale and needed a
        #: fallback search (the race Section 4 disregards).
        self.stale_deliveries = 0

    def _wire_ai_member(self, member: str) -> None:
        if member in self._ai_wired:
            return
        self._ai_wired.add(member)
        mh = self.network.mobile_host(member)
        mh.register_handler(self.kind_update, self._on_update)
        mh.register_handler(self.kind_hello, self._on_hello)
        mh.register_handler(self.kind_welcome, self._on_welcome)
        mh.register_handler(self.kind_goodbye, self._on_goodbye)

    # ------------------------------------------------------------------
    # Sending: group messages and location updates share one path
    # ------------------------------------------------------------------

    def _send(self, sender_mh_id: str, payload: object,
              msg_id: int) -> None:
        from repro.groups.base import DeliveryEnvelope

        self._flood(
            sender_mh_id, self.kind_deliver,
            DeliveryEnvelope(msg_id, payload),
        )

    def _after_member_attached(self, mh_id: str) -> None:
        # After a move, inform every member of the new location.
        update = LocationUpdate(mh_id, self.current_mss_of(mh_id))
        self.directories[mh_id][mh_id] = update.new_mss_id
        self._flood(mh_id, self.kind_update, update)

    def _flood(self, sender_mh_id: str, kind: str, payload: object) -> None:
        mh = self.network.mobile_host(sender_mh_id)
        if not mh.is_connected:  # pragma: no cover - defensive
            return
        directory = self.directories[sender_mh_id]
        for member in self.members:
            if member == sender_mh_id:
                continue
            # A sender whose directory has no entry yet (a freshly
            # joined member whose welcomes are still in flight) routes
            # the copy via its own MSS; the fallback search finds the
            # destination.
            believed = directory.get(member, mh.current_mss_id)
            copy = DirectedCopy(member, believed, payload)
            # Tag the copy with the final kind so the relay knows what
            # to deliver.
            mh.send_to_mss(self.kind_route, (kind, copy), self.scope)

    # ------------------------------------------------------------------
    # MSS side
    # ------------------------------------------------------------------

    def _relay(self, message: Message) -> None:
        kind, copy = message.payload
        self.network.mss(message.dst).send_fixed(
            copy.dst_mss_id, self.kind_forward, (kind, copy), self.scope
        )

    def _forward(self, message: Message) -> None:
        kind, copy = message.payload
        mss = self.network.mss(message.dst)
        if mss.is_local(copy.dst_mh_id):
            self.network.send_wireless_down(
                mss.host_id,
                copy.dst_mh_id,
                Message(
                    kind=kind,
                    src=message.src,
                    dst=copy.dst_mh_id,
                    payload=copy.payload,
                    scope=self.scope,
                ),
                # The member left while the copy was on the air: recover
                # with a search, like any other stale delivery.
                on_lost=partial(self._resend_lost, mss.host_id, kind, copy),
            )
            return
        self._search_fallback(mss.host_id, kind, copy)

    def _search_fallback(
        self, from_mss_id: str, kind: str, copy: DirectedCopy
    ) -> None:
        # Stale directory entry: the member moved while the copy was in
        # flight.  Fall back to a search so the message is not lost.
        self.stale_deliveries += 1
        self.network.send_to_mh(
            from_mss_id,
            copy.dst_mh_id,
            Message(
                kind=kind,
                src=from_mss_id,
                dst=copy.dst_mh_id,
                payload=copy.payload,
                scope=self.scope,
            ),
            on_disconnected=partial(self._unreachable, kind, copy),
        )

    def _resend_lost(self, from_mss_id: str, kind: str, copy: DirectedCopy,
                     message: Message) -> None:
        self._search_fallback(from_mss_id, kind, copy)

    def _unreachable(self, kind: str, copy: DirectedCopy,
                     outcome: "SearchOutcome") -> None:
        # Only group messages are accounted; a lost location update
        # merely leaves the directory stale.
        if kind == self.kind_deliver:
            self._record_missed(copy.payload.msg_id, copy.dst_mh_id)

    # ------------------------------------------------------------------
    # Membership changes (extension)
    # ------------------------------------------------------------------

    def _on_member_added(self, mh_id: str) -> None:
        # The newcomer starts with a directory knowing only itself and
        # announces itself to every member via search (it has no
        # location knowledge yet); each member adds the entry and
        # replies with a directed welcome carrying its own location.
        here = self.current_mss_of(mh_id)
        self.directories[mh_id] = {mh_id: here}
        self._wire_ai_member(mh_id)
        mh = self.network.mobile_host(mh_id)
        hello = Hello(mh_id, here)
        for member in self.members:
            if member == mh_id:
                continue
            self._hello.send(mh, member, self.kind_hello, hello)

    def _on_member_removed(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if mh.is_connected:
            # Protocol hygiene: ask the others to drop the entry.  A
            # detached leaver simply goes stale -- the entry is never
            # consulted again because sends iterate current members.
            self._flood(mh_id, self.kind_goodbye, Goodbye(mh_id))
        self.directories.pop(mh_id, None)

    # ------------------------------------------------------------------
    # MH side
    # ------------------------------------------------------------------

    def _on_update(self, message: Message) -> None:
        update: LocationUpdate = message.payload
        self.directories[message.dst][update.mover_mh_id] = (
            update.new_mss_id
        )

    def _on_hello(self, message: Message) -> None:
        hello: Hello = message.payload
        member = message.dst
        directory = self.directories.get(member)
        if directory is None:  # pragma: no cover - left the group
            return
        directory[hello.mh_id] = hello.mss_id
        # Welcome the newcomer with our own location (directed copy).
        mh = self.network.mobile_host(member)
        if not mh.is_connected:  # pragma: no cover - defensive
            return
        welcome = Welcome(member, mh.current_mss_id)
        copy = DirectedCopy(hello.mh_id, hello.mss_id, welcome)
        mh.send_to_mss(
            self.kind_route, (self.kind_welcome, copy), self.scope
        )

    def _on_welcome(self, message: Message) -> None:
        welcome: Welcome = message.payload
        directory = self.directories.get(message.dst)
        if directory is not None:
            directory[welcome.mh_id] = welcome.mss_id

    def _on_goodbye(self, message: Message) -> None:
        goodbye: Goodbye = message.payload
        directory = self.directories.get(message.dst)
        if directory is not None:
            directory.pop(goodbye.mh_id, None)
