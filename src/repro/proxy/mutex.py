"""A static-host algorithm extended to MHs purely through proxies.

Section 5's recipe: "the distributed algorithm can be extended to the
mobile environment by executing the algorithm at the proxies of the
participating mobile hosts".  Here the unchanged Lamport substrate
(:class:`~repro.mutex.lamport_core.LamportMutexNode`) runs at the
proxies; the :class:`~repro.proxy.manager.ProxyManager` is the entire
mobility layer.  With :class:`LocalProxyPolicy` this reconstructs
algorithm L2; with :class:`FixedProxyPolicy` it yields an L2 variant
whose grants never need a search (the fixed proxy always knows its MH's
location) at the price of per-move inform traffic -- the same algorithm
code either way, which is the point of the framework.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mutex.lamport_core import LamportMutexNode, MutexTransport
from repro.mutex.resource import CriticalResource
from repro.proxy.manager import ProxyManager


class _ProxyTransport(MutexTransport):
    """Transport between the proxies hosting Lamport nodes."""

    def __init__(self, mutex: "ProxiedMutex", mss_id: str) -> None:
        self._mss_id = mss_id
        # As mutex.l2._FixedTransport: the station and the participating
        # proxies are fixed, so senders, scope and peers are bound once.
        self._send_fixed = mutex.manager.network.mss(mss_id).send_fixed
        self._fan_out = mutex.manager.network.fan_out_fixed
        self._scope = mutex.scope
        self._peers = tuple(p for p in mutex.proxy_ids if p != mss_id)

    def peers(self) -> Tuple[str, ...]:
        return self._peers

    def send(self, dst: str, kind: str, payload: object) -> None:
        self._send_fixed(dst, kind, payload, self._scope)

    def broadcast(self, kind: str, payload: object) -> None:
        self._fan_out(self._mss_id, self._peers, kind, payload, self._scope)


class ProxiedMutex:
    """Lamport mutual exclusion executed at the proxies of mobile hosts.

    The participating proxies are the *distinct proxies of the managed
    MHs at construction time* (for the fixed policy they never change;
    for the local policy this class is a teaching construction --
    algorithm L2 is its production form).
    """

    def __init__(
        self,
        manager: ProxyManager,
        resource: CriticalResource,
        cs_duration: float = 1.0,
        scope: str = "proxied-mutex",
        on_complete: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.manager = manager
        self.resource = resource
        self.cs_duration = cs_duration
        self.scope = scope
        self.on_complete = on_complete
        self.proxy_ids = manager.proxies()
        if len(self.proxy_ids) < 2:
            raise ConfigurationError(
                "proxied mutex needs participants on >= 2 proxies"
            )
        self.completed: List[Tuple[float, str]] = []
        self._nodes: Dict[str, LamportMutexNode] = {}
        #: mh_id -> granting proxy, for a ``done`` owed by a MH that
        #: left the region while detached (as L2's ``_owed_release``).
        self._owed_done: Dict[str, str] = {}
        network = manager.network
        for mss_id in self.proxy_ids:
            node = LamportMutexNode(
                node_id=mss_id,
                transport=_ProxyTransport(self, mss_id),
                kind_prefix=scope,
                on_granted=lambda tag, m=mss_id: self._on_granted(m, tag),
            )
            self._nodes[mss_id] = node
            mss = network.mss(mss_id)
            mss.register_handler(
                f"{scope}.request",
                lambda msg, n=node: n.on_request(msg.payload),
            )
            mss.register_handler(
                f"{scope}.reply",
                lambda msg, n=node: n.on_reply(msg.payload),
            )
            mss.register_handler(
                f"{scope}.release",
                lambda msg, n=node: n.on_release(msg.payload),
            )
        manager.register_uplink_handler(
            f"{scope}.init", self._on_init
        )
        manager.register_uplink_handler(
            f"{scope}.done", self._on_done
        )
        # A done may be uplinked at any MSS (the MH moved): every MSS
        # can forward it to the granting proxy.
        for mss_id in network.mss_ids():
            network.mss(mss_id).register_handler(
                f"{scope}.done_fwd",
                lambda msg: self._finish(msg.dst, msg.payload),
            )
        for mh_id in manager.mh_ids:
            mh = network.mobile_host(mh_id)
            mh.register_handler(f"{scope}.grant", self._on_grant)
            mh.add_attach_listener(lambda m=mh_id: self._flush_owed(m))

    # ------------------------------------------------------------------

    def request(self, mh_id: str) -> None:
        """Have ``mh_id`` request the region via its proxy."""
        self.manager.uplink(mh_id, f"{self.scope}.init", None)

    def node(self, mss_id: str) -> LamportMutexNode:
        """The Lamport node at proxy ``mss_id`` (for tests)."""
        return self._nodes[mss_id]

    # ------------------------------------------------------------------

    def _on_init(self, mh_id: str, proxy: str, payload: object) -> None:
        if proxy not in self._nodes:
            raise ConfigurationError(
                f"{proxy} is not a participating proxy"
            )
        self._nodes[proxy].request(tag=mh_id)

    def _on_granted(self, proxy: str, mh_id: str) -> None:
        # Obligation: reach the MH wherever it is now.
        self.manager.deliver(
            proxy, mh_id, f"{self.scope}.grant", (mh_id, proxy)
        )

    def _on_grant(self, message) -> None:
        mh_id, proxy = message.payload
        self.resource.enter(mh_id, info={"algorithm": self.scope})
        self.manager.network.scheduler.schedule(
            self.cs_duration, self._exit_region, mh_id, proxy
        )

    def _exit_region(self, mh_id: str, proxy: str) -> None:
        self.resource.leave(mh_id)
        if self.manager.network.mobile_host(mh_id).is_connected:
            self.manager.uplink(mh_id, f"{self.scope}.done", proxy)
        else:
            # Left the region mid-move or disconnected: the done is
            # owed to the granting proxy and uplinked on reattachment.
            self._owed_done[mh_id] = proxy

    def _flush_owed(self, mh_id: str) -> None:
        proxy = self._owed_done.pop(mh_id, None)
        if proxy is not None:
            self.manager.uplink(mh_id, f"{self.scope}.done", proxy)

    def _on_done(self, mh_id: str, current_proxy: str,
                 granting_proxy: str) -> None:
        # The done uplink lands at the MH's *current* proxy; route the
        # release to the proxy that holds the Lamport request.
        if current_proxy == granting_proxy:
            self._finish(granting_proxy, mh_id)
        else:
            self.manager.network.mss(current_proxy).send_fixed(
                granting_proxy,
                f"{self.scope}.done_fwd",
                mh_id,
                self.scope,
            )

    def _finish(self, proxy: str, mh_id: str) -> None:
        self._nodes[proxy].release(tag=mh_id)
        self.completed.append(
            (self.manager.network.scheduler.now, mh_id)
        )
        if self.on_complete is not None:
            self.on_complete(mh_id)
