"""The MH -> MH hop: one uplink, one search, one downlink.

Section 2's cost model prices a message from one mobile host to another
at ``2*C_wireless + C_search`` wherever it is sent: the sender transmits
to its local MSS, which searches for the destination and hands the
message to the cell that finds it for the final wireless hop.  Every
algorithm that runs on the MHs themselves (L1, R1, pure search, the
always-inform hello) sends through one :class:`MhRelay`, so the hop is
written once.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hosts.mh import MobileHost
    from repro.net.network import Network
    from repro.net.search import SearchOutcome


class Routed(NamedTuple):
    """MH -> local MSS: deliver ``inner`` to ``dst_mh_id`` as ``kind``."""

    dst_mh_id: str
    kind: str
    inner: object


class MhRelay:
    """The stations' side of the MH -> MH hop for one protocol scope.

    Every MSS accepts ``{scope}.{route}`` uplinks and delivers the
    routed message with :meth:`Network.send_to_mh`, keeping the sending
    MH as its ``src``.  If the destination is disconnected,
    ``unreachable(relay_mss_id, src_mh_id, routed, outcome)`` runs at
    the relaying station (when given).
    """

    def __init__(
        self,
        network: "Network",
        scope: str,
        route: str = "route",
        unreachable: Optional[
            Callable[[str, str, Routed, "SearchOutcome"], None]
        ] = None,
    ) -> None:
        self.network = network
        self.scope = scope
        self.kind = f"{scope}.{route}"
        self._unreachable = unreachable
        for mss_id in network.mss_ids():
            network.mss(mss_id).register_handler(self.kind, self._relay)

    def send(self, mh: "MobileHost", dst_mh_id: str, kind: str,
             inner: object) -> None:
        """Have ``mh`` send ``inner`` to ``dst_mh_id`` as ``kind``."""
        mh.send_to_mss(self.kind, Routed(dst_mh_id, kind, inner), self.scope)

    def _relay(self, message: Message) -> None:
        routed: Routed = message.payload
        here = message.dst
        self.network.send_to_mh(
            here,
            routed.dst_mh_id,
            Message(routed.kind, message.src, routed.dst_mh_id,
                    routed.inner, self.scope),
            on_disconnected=None if self._unreachable is None else partial(
                self._unreachable, here, message.src, routed),
        )
