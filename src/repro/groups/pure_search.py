"""Pure search strategy (Section 4.1).

A MH only keeps the member list of G; nobody tracks anybody's location.
To send a group message, the sender transmits one point-to-point message
per member, each of which incurs a search:
``(|G|-1) * (2*C_wireless + C_search)`` per group message, independent
of MOB.  This extends the "search on demand" idea of the network-layer
protocol in the paper's reference [10] from single MHs to groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.groups.base import GroupStrategy
from repro.net.relay import MhRelay, Routed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.search import SearchOutcome


class PureSearchGroup(GroupStrategy):
    """The stateless search-everything strategy."""

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str = "group-ps",
    ) -> None:
        super().__init__(network, members, scope)
        self._relay = MhRelay(network, scope, unreachable=self._missed)

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
            self._relay.send(mh, member, self.kind_deliver, envelope)

    def _missed(self, relay_mss_id: str, src_mh_id: str, routed: Routed,
                outcome: "SearchOutcome") -> None:
        self._record_missed(routed.inner.msg_id, routed.dst_mh_id)
