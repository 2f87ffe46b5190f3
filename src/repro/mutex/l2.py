"""Algorithm L2: Lamport's mutual exclusion at the support stations.

The paper's first two-tier algorithm (Section 3.1.1).  The M MSSs run
Lamport's algorithm *unmodified* among themselves; mobile hosts only

* send ``init(h)`` to their local MSS to request the region (one
  wireless message, timestamped on receipt at the MSS),
* receive ``grant_request`` when their proxy has secured the region
  (search + one wireless message, since the MH may have moved), and
* send ``release_resource`` relayed via their *current* local MSS back
  to the proxy (one wireless + at most one fixed message).

Cost of one execution:
``3*C_wireless + C_fixed + C_search + 3*(M-1)*C_fixed``
-- constant in N, constant number (3) of wireless messages, no request
queues at the MHs.

Disconnection handling follows the paper exactly:

* if the MH disconnects before the grant arrives, the search resolves to
  the disconnected status, the proxy learns the MH is unreachable and
  broadcasts a release so the other MSSs make progress;
* if the MH disconnects after the grant but before releasing, it must
  reconnect to send ``release_resource`` (the client flushes the owed
  release automatically on reattachment);
* disconnection at any other time does not affect L2 at all.

This is the library's one station-hosted Lamport: Section 5's
:class:`repro.proxy.ProxiedMutex` is this class with a proxy scope
plugged in, and shares every obligation above.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple,
)

from repro.clock import Timestamp
from repro.errors import ConfigurationError
from repro.mutex.lamport_core import LamportMutexNode, MutexTransport
from repro.mutex.resource import CriticalResource, RegionClient, RegionReturn
from repro.net.messages import Message
from repro.net.search import SearchOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class InitPayload(NamedTuple):
    """MH -> local MSS: request the critical region."""

    mh_id: str


class GrantPayload(NamedTuple):
    """Proxy MSS -> MH: the region is yours."""

    mh_id: str
    proxy_mss_id: str
    request_ts: Timestamp


class _FixedTransport(MutexTransport):
    """Transport between the participating MSSs (static network)."""

    def __init__(self, mutex: "L2Mutex", mss_id: str) -> None:
        self._mutex = mutex
        self._mss_id = mss_id
        # A station object is permanent: bind its senders and the scope
        # once instead of looking the station up per message.
        self._send_fixed = mutex.network.mss(mss_id).send_fixed
        self._fan_out = mutex.network.fan_out_fixed
        self._scope = mutex.scope

    @cached_property
    def _peers(self) -> Tuple[str, ...]:
        # Built on first use: at M=256 most stations never broadcast.
        return tuple(m for m in self._mutex.mss_ids if m != self._mss_id)

    def peers(self) -> Tuple[str, ...]:
        return self._peers

    def send(self, dst: str, kind: str, payload: object) -> None:
        self._send_fixed(dst, kind, payload, self._scope)

    def broadcast(self, kind: str, payload: object) -> None:
        self._fan_out(self._mss_id, self._peers, kind, payload, self._scope)


class L2Mutex:
    """Two-tier Lamport mutual exclusion (the paper's Algorithm L2).

    Args:
        network: the simulated system.
        resource: the instrumented critical region.
        cs_duration: how long a grantee stays inside the region.
        scope: metrics scope for all L2 traffic.
        on_complete: optional callback ``(mh_id)`` after a release.
        on_aborted: optional callback ``(mh_id)`` when a request was
            dropped because the MH disconnected before its grant.
    """

    def __init__(
        self,
        network: "Network",
        resource: CriticalResource,
        cs_duration: float = 1.0,
        scope: str = "L2",
        on_complete: Optional[Callable[[str], None]] = None,
        on_aborted: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.network = network
        self.scope = scope
        #: the MSSs that run a Lamport node.
        self.mss_ids = self._participants()
        if len(self.mss_ids) < 2:
            raise ConfigurationError(
                f"L2 needs at least two participating MSSs, got "
                f"{self.mss_ids}")
        if network.faults is not None and network.faults.plan.crashes:
            # Lamport needs every station's reply; a crash loses a queue.
            crash = network.faults.plan.crashes[0]
            raise ConfigurationError(
                f"algorithm L2 does not survive an MSS crash: "
                f"{crash.mss_id} at t={crash.at} (recover_at="
                f"{crash.recover_at}); run R2 under MSS crashes")
        self.resource = resource
        self.cs_duration = cs_duration
        self.on_complete = on_complete
        self.on_aborted = on_aborted
        self.completed: List[Tuple[float, str]] = []
        self.aborted: List[Tuple[float, str]] = []
        #: request timestamps in grant order, for fairness checks.
        self.grant_log: List[Tuple[Timestamp, str]] = []
        self._nodes: Dict[str, LamportMutexNode] = {}
        self._request_ts: Dict[str, Dict[str, Timestamp]] = {}
        for mss_id in self.mss_ids:
            self._attach_mss(mss_id)
        self._wire_requests()
        # A MH releases through whichever cell it is in by then.
        self._region = RegionClient(
            network, resource, cs_duration, scope,
            ("release_resource", "release_fwd"), "l2", "proxy",
            returned=self._finish_release,
        )
        if network.faults is not None:
            network.faults.add_mh_crash_listener(self._on_mh_crash)

    # ------------------------------------------------------------------
    # Wiring (the first two are what a proxy scope overrides)
    # ------------------------------------------------------------------

    def _participants(self) -> List[str]:
        """The MSSs that run a Lamport node: every station."""
        return self.network.mss_ids()

    def _wire_requests(self) -> None:
        """Every MSS accepts ``init`` from the MHs in its cell."""
        for mss_id in self.mss_ids:
            self.network.mss(mss_id).register_handler(
                f"{self.scope}.init", self._on_init
            )

    def _attach_mss(self, mss_id: str) -> None:
        mss = self.network.mss(mss_id)
        node = LamportMutexNode(
            node_id=mss_id,
            transport=_FixedTransport(self, mss_id),
            kind_prefix=self.scope,
            on_granted=partial(self._on_granted, mss_id),
        )
        self._nodes[mss_id] = node
        self._request_ts[mss_id] = {}
        mss.register_handler(f"{self.scope}.request", self._on_request)
        mss.register_handler(f"{self.scope}.reply", self._on_reply)
        mss.register_handler(f"{self.scope}.release", self._on_release)

    # The Lamport messages, each handed to the node at its destination.

    def _on_request(self, message: Message) -> None:
        self._nodes[message.dst].on_request(message.payload)

    def _on_reply(self, message: Message) -> None:
        self._nodes[message.dst].on_reply(message.payload)

    def _on_release(self, message: Message) -> None:
        self._nodes[message.dst].on_release(message.payload)

    def attach_client(self, mh_id: str) -> None:
        """Enable ``mh_id`` to use L2 (registers the grant handler)."""
        self._region.attach(mh_id, self._on_grant)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def request(self, mh_id: str) -> None:
        """Have ``mh_id`` initiate L2: send ``init`` to its local MSS."""
        self.attach_client(mh_id)
        mh = self.network.mobile_host(mh_id)
        mh.send_to_mss(
            f"{self.scope}.init", InitPayload(mh_id), self.scope
        )

    def node(self, mss_id: str) -> LamportMutexNode:
        """The Lamport node running at ``mss_id`` (for tests)."""
        return self._nodes[mss_id]

    # ------------------------------------------------------------------
    # MSS side
    # ------------------------------------------------------------------

    def _on_init(self, message: Message) -> None:
        payload: InitPayload = message.payload
        mss_id = message.dst
        node = self._nodes[mss_id]
        # The request is timestamped when init() reaches the local MSS.
        ts = node.request(tag=payload.mh_id)
        self._request_ts[mss_id][payload.mh_id] = ts

    def _on_granted(self, mss_id: str, mh_id: str) -> None:
        mss = self.network.mss(mss_id)
        ts = self._request_ts[mss_id][mh_id]
        mss.send_to_mh(
            mh_id,
            f"{self.scope}.grant",
            GrantPayload(mh_id, mss_id, ts),
            self.scope,
            on_disconnected=partial(
                self._on_grantee_unreachable, mss_id, mh_id
            ),
        )

    def _on_grantee_unreachable(
        self, mss_id: str, mh_id: str,
        outcome: Optional[SearchOutcome] = None,
    ) -> None:
        # The MH is unreachable: its request cannot be satisfied, so the
        # proxy releases on its behalf to let the rest of the system
        # make progress (Section 3.1.1).  ``outcome`` is the search's
        # verdict; a proxy policy's miss callback passes none.
        self._request_ts[mss_id].pop(mh_id, None)
        self._nodes[mss_id].abort(mh_id)
        self.aborted.append((self.network.scheduler.now, mh_id))
        if self.on_aborted is not None:
            self.on_aborted(mh_id)

    def _finish_release(self, mss_id: str, mh_id: str) -> None:
        self._request_ts[mss_id].pop(mh_id, None)
        self._nodes[mss_id].release(tag=mh_id)
        self.completed.append((self.network.scheduler.now, mh_id))
        if self.on_complete is not None:
            self.on_complete(mh_id)

    # ------------------------------------------------------------------
    # MH side
    # ------------------------------------------------------------------

    def _on_grant(self, message: Message) -> None:
        grant: GrantPayload = message.payload
        self.grant_log.append((grant.request_ts, grant.mh_id))
        self._region.enter(
            grant.mh_id, RegionReturn(grant.mh_id, grant.proxy_mss_id),
            {"algorithm": self.scope, "request_ts": grant.request_ts},
            grant.proxy_mss_id,
        )

    def _on_mh_crash(self, mh_id: str) -> None:
        """L2's state lives at the stations, so a MH crash touches at
        most the grant the crashed host was holding.  Crashed inside the
        region, the proxy releases on its behalf as for an unreachable
        grantee; crashed owing a release (an amnesiac host would never
        send it), the serving cell's crash detection lets the proxy
        disclaim the debt.  A pending ``init`` needs nothing: its grant's
        search finds the host disconnected.
        """
        back = self._region.crash(mh_id)
        if back is not None:
            self._on_grantee_unreachable(back.grantor_mss_id, mh_id)
            return
        owed = self._region.disclaim(mh_id)
        if owed is not None:
            self.network.metrics.record_fault("l2.owed_release_disclaimed")
            self._finish_release(owed.grantor_mss_id, mh_id)
