"""Pure search strategy (Section 4.1).

A MH only keeps the member list of G; nobody tracks anybody's location.
To send a group message, the sender transmits one point-to-point message
per member, each of which incurs a search:
``(|G|-1) * (2*C_wireless + C_search)`` per group message, independent
of MOB.  This extends the "search on demand" idea of the network-layer
protocol in the paper's reference [10] from single MHs to groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple

from repro.groups.base import GroupStrategy
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class RoutedCopy(NamedTuple):
    """One member's copy, relayed through the sender's local MSS."""

    dst_mh_id: str
    envelope: object


class PureSearchGroup(GroupStrategy):
    """The stateless search-everything strategy."""

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str = "group-ps",
    ) -> None:
        super().__init__(network, members, scope)
        self.kind_route = f"{scope}.route"
        for mss_id in network.mss_ids():
            network.mss(mss_id).register_handler(
                self.kind_route, self._relay
            )

    def _send(self, sender_mh_id: str, payload: object,
              msg_id: int) -> None:
        from repro.groups.base import DeliveryEnvelope

        mh = self.network.mobile_host(sender_mh_id)
        envelope = DeliveryEnvelope(msg_id, payload)
        for member in self.members:
            if member == sender_mh_id:
                continue
            # One separate point-to-point message per member: a wireless
            # uplink followed by a search.
            mh.send_to_mss(
                self.kind_route, RoutedCopy(member, envelope), self.scope
            )

    def _relay(self, message: Message) -> None:
        routed: RoutedCopy = message.payload
        self.network.send_to_mh(
            message.dst,
            routed.dst_mh_id,
            Message(
                kind=self.kind_deliver,
                src=message.src,
                dst=routed.dst_mh_id,
                payload=routed.envelope,
                scope=self.scope,
            ),
            on_disconnected=lambda outcome: self._record_missed(
                routed.envelope.msg_id, routed.dst_mh_id
            ),
        )
