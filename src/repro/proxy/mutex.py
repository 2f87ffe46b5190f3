"""A static-host algorithm extended to MHs purely through proxies.

Section 5's recipe: "the distributed algorithm can be extended to the
mobile environment by executing the algorithm at the proxies of the
participating mobile hosts".  :class:`ProxiedMutex` is algorithm L2
(:class:`~repro.mutex.l2.L2Mutex`) with a proxy scope plugged in: the
participants are the managed MHs' proxies, a request travels by
:meth:`ProxyManager.uplink` and a grant by :meth:`ProxyManager.deliver`
(a search under the local policy, none under the fixed one).  The proxy
keeps L2's obligations under any scope: a grantee unreachable at grant
time aborts its request, a MH that leaves the region while detached
owes the release until it reattaches, a MH that crashes inside the
region is vacated, and an MSS crash plan is refused.  Under
:class:`LocalProxyPolicy` a run equals L2's message for message.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.mutex.l2 import GrantPayload, L2Mutex
from repro.mutex.resource import CriticalResource
from repro.proxy.manager import ProxyManager


class ProxiedMutex(L2Mutex):
    """Lamport mutual exclusion executed at the proxies of mobile hosts.

    The participating proxies are the *distinct proxies of the managed
    MHs at construction time*; a request must reach one of them.
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
        super().__init__(manager.network, resource, cs_duration, scope,
                         on_complete)

    def _participants(self) -> List[str]:
        return self.manager.proxies()

    def _wire_requests(self) -> None:
        self.manager.register_uplink_handler(
            f"{self.scope}.init", self._on_uplinked_init
        )

    def request(self, mh_id: str) -> None:
        """Have ``mh_id`` request the region via its proxy."""
        self.attach_client(mh_id)
        self.manager.uplink(mh_id, f"{self.scope}.init", None)

    def _on_uplinked_init(self, mh_id: str, proxy: str,
                          payload: object) -> None:
        node = self._nodes.get(proxy)
        if node is None:
            raise ConfigurationError(f"{proxy} is not a participating proxy")
        self._request_ts[proxy][mh_id] = node.request(tag=mh_id)

    def _on_granted(self, proxy: str, mh_id: str) -> None:
        # Obligation: reach the MH wherever it is now, or abort.
        self.manager.deliver(
            proxy, mh_id, f"{self.scope}.grant",
            GrantPayload(mh_id, proxy, self._request_ts[proxy][mh_id]),
            partial(self._on_grantee_unreachable, proxy),
        )
