"""Proxied MH-to-MH messaging: the search/inform trade-off, per proxy.

A sender MH uplinks a letter to its proxy; the proxy routes it to the
destination MH through the destination's proxy association:

* **fixed proxies** -- the destination's proxy is static knowledge, so
  the letter goes sender-proxy -> destination-proxy (fixed hop) and the
  destination proxy, whose location register is kept fresh by per-move
  inform traffic, forwards it without any search;
* **local proxies** -- nobody tracks the destination, so its current
  proxy must be found with a search.

Benchmark E11 sweeps the move-to-message ratio across both policies:
fixed proxies win when hosts message more than they move, local proxies
when they move more than they message -- Section 5's observation that a
fixed association "may be infeasible" for frequently moving hosts.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.errors import ConfigurationError
from repro.proxy.manager import ProxyManager


class Letter(NamedTuple):
    """One point-to-point payload between two MHs."""

    src_mh_id: str
    dst_mh_id: str
    payload: object


class ProxiedMessenger:
    """Point-to-point MH messaging on top of a proxy association."""

    def __init__(self, manager: ProxyManager) -> None:
        self.manager = manager
        self.kind_send = "messenger.send"
        self.kind_to_dst_proxy = f"{manager.scope}.letter"
        self.kind_deliver = f"{manager.scope}.letter_deliver"
        #: (time, recipient, payload) per delivered letter.
        self.delivered: List[Tuple[float, str, object]] = []
        self.missed: List[str] = []
        manager.register_uplink_handler(self.kind_send, self._at_src_proxy)
        network = manager.network
        for mss_id in network.mss_ids():
            network.mss(mss_id).register_handler(
                self.kind_to_dst_proxy, self._at_dst_proxy
            )
        for mh_id in manager.mh_ids:
            network.mobile_host(mh_id).register_handler(
                self.kind_deliver, self._at_dst_mh
            )

    # ------------------------------------------------------------------

    def send(self, src_mh_id: str, dst_mh_id: str, payload: object) -> None:
        """Send ``payload`` from one managed MH to another."""
        if dst_mh_id not in self.manager.mh_ids:
            raise ConfigurationError(
                f"{dst_mh_id} is not managed by this messenger"
            )
        self.manager.uplink(
            src_mh_id, self.kind_send, Letter(src_mh_id, dst_mh_id, payload)
        )

    def deliveries_of(self, payload: object) -> List[str]:
        """Recipients that received ``payload`` (for tests)."""
        return [mh for (_, mh, p) in self.delivered if p == payload]

    # ------------------------------------------------------------------

    def _at_src_proxy(self, mh_id: str, proxy: str, letter: Letter) -> None:
        # Policies with a static assignment (fixed, adaptive) expose the
        # destination's *home* proxy as universally known rendezvous
        # knowledge: one fixed hop there, and the home proxy completes
        # the delivery (register if tracked, search otherwise).  Under
        # a purely local policy nobody is a rendezvous: the sender's
        # proxy searches directly.
        dst_home = self.manager.policy.home_of(letter.dst_mh_id)
        if dst_home is None or dst_home == proxy:
            self._deliver_from_proxy(proxy, letter)
        else:
            self.manager.network.mss(proxy).send_fixed(
                dst_home,
                self.kind_to_dst_proxy,
                letter,
                self.manager.scope,
            )

    def _at_dst_proxy(self, message) -> None:
        self._deliver_from_proxy(message.dst, message.payload)

    def _deliver_from_proxy(self, proxy_mss_id: str, letter: Letter) -> None:
        self.manager.deliver(
            proxy_mss_id,
            letter.dst_mh_id,
            self.kind_deliver,
            letter,
            on_missed=self._on_missed,
        )

    def _on_missed(self, mh_id: str) -> None:
        # Not ``self.missed.append``: a list's method deep-copies by
        # reference, so a fork would record misses in the original.
        self.missed.append(mh_id)

    def _at_dst_mh(self, message) -> None:
        letter: Letter = message.payload
        self.delivered.append(
            (
                self.manager.network.scheduler.now,
                letter.dst_mh_id,
                letter.payload,
            )
        )
