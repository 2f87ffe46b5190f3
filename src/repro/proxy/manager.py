"""The proxy manager: the mobility layer of the two-layer structure.

One layer executes a distributed algorithm over the static proxies; the
other -- this manager plus its policy -- handles all interaction between
a proxy and the MHs "under" it: uplink relaying, downlink delivery, and
location bookkeeping.  Algorithms built on the manager (messenger,
proxied mutex) contain no mobility handling of their own, which is
precisely the decoupling Section 5 advocates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ConfigurationError
from repro.net.messages import Message
from repro.proxy.policy import ProxyPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

UplinkHandler = Callable[[str, str, object], None]


class ProxyManager:
    """Routes messages between MHs and their proxies.

    Args:
        network: the simulated system.
        policy: the scope policy (fixed or local proxies).
        mh_ids: the MHs managed by this proxy association.
        scope: metrics scope for all proxy-layer traffic.
    """

    def __init__(
        self,
        network: "Network",
        policy: ProxyPolicy,
        mh_ids: List[str],
        scope: str = "proxy",
    ) -> None:
        if not mh_ids:
            raise ConfigurationError("proxy manager needs at least one MH")
        self.network = network
        self.policy = policy
        self.mh_ids = list(mh_ids)
        self.scope = scope
        self.kind_uplink = f"{scope}.uplink"
        self.kind_relay = f"{scope}.relay"
        self.kind_inform = f"{scope}.inform"
        self.stale_deliveries = 0
        #: proxy-side uplink consumers: kind -> handler(mh_id, proxy, payload)
        self._uplink_handlers: dict = {}
        for mss_id in network.mss_ids():
            mss = network.mss(mss_id)
            mss.register_handler(self.kind_uplink, self._on_uplink)
            mss.register_handler(self.kind_relay, self._on_relay)
            mss.register_handler(self.kind_inform, self._on_inform)
        policy.wire(self)
        if network.faults is not None:
            network.faults.add_mh_crash_listener(self._on_mh_crash)

    def _on_mh_crash(self, mh_id: str) -> None:
        if mh_id in self.mh_ids:
            self.policy.on_mh_crashed(mh_id)

    # ------------------------------------------------------------------
    # MH -> proxy
    # ------------------------------------------------------------------

    def register_uplink_handler(
        self, kind: str, handler: UplinkHandler
    ) -> None:
        """Register a proxy-side consumer for uplinked ``kind``."""
        if kind in self._uplink_handlers:
            raise ConfigurationError(
                f"uplink handler for {kind!r} already registered"
            )
        self._uplink_handlers[kind] = handler

    def uplink(self, mh_id: str, kind: str, payload: object) -> None:
        """Send ``payload`` from a MH to its proxy.

        One wireless hop to the current MSS; if the proxy is a different
        MSS (fixed policy after a move), one more fixed hop.
        """
        mh = self.network.mobile_host(mh_id)
        mh.send_to_mss(
            self.kind_uplink, (mh_id, kind, payload), self.scope
        )

    def _on_uplink(self, message: Message) -> None:
        mh_id, kind, payload = message.payload
        current_mss_id = message.dst
        proxy = self.policy.proxy_for_uplink(mh_id, current_mss_id)
        if proxy == current_mss_id:
            self._dispatch_uplink(mh_id, proxy, kind, payload)
        else:
            self.network.mss(current_mss_id).send_fixed(
                proxy, self.kind_relay, (mh_id, kind, payload), self.scope
            )

    def _on_relay(self, message: Message) -> None:
        mh_id, kind, payload = message.payload
        self._dispatch_uplink(mh_id, message.dst, kind, payload)

    def _dispatch_uplink(
        self, mh_id: str, proxy: str, kind: str, payload: object
    ) -> None:
        handler = self._uplink_handlers.get(kind)
        if handler is None:
            raise ConfigurationError(
                f"no uplink handler registered for {kind!r}"
            )
        handler(mh_id, proxy, payload)

    # ------------------------------------------------------------------
    # Proxy -> MH
    # ------------------------------------------------------------------

    def deliver(
        self,
        src_mss_id: str,
        mh_id: str,
        kind: str,
        payload: object,
        on_missed: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Deliver ``payload`` from a proxy to a MH (policy-routed)."""
        self.policy.deliver(
            self, src_mss_id, mh_id, kind, payload, on_missed
        )

    def _on_inform(self, message: Message) -> None:
        self.policy.on_inform(*message.payload)

    # ------------------------------------------------------------------

    def proxies(self) -> List[str]:
        """The distinct proxies currently backing the managed MHs."""
        return sorted({self.policy.proxy_of(m) for m in self.mh_ids})
