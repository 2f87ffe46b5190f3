"""Algorithm L1: Lamport's mutual exclusion directly on mobile hosts.

The paper's inefficient baseline (Section 3.1.1).  Every participant is
a MH; every algorithm message is MH -> MH and therefore costs
``2*C_wireless + C_search`` (uplink to the local MSS, search, downlink
from the destination's MSS).  One execution exchanges ``3*(N-1)``
messages, so its total cost is ``3*(N-1)*(2*C_wireless + C_search)`` and
the energy drained from batteries is proportional to ``6*(N-1)``
wireless transmissions/receptions.

The implementation reuses the static Lamport substrate unchanged -- the
only L1-specific code is the MH->MH transport and the critical-region
glue, which is precisely the paper's framing.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.mutex.lamport_core import LamportMutexNode, MutexTransport
from repro.mutex.resource import CriticalResource
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class RoutedPayload(NamedTuple):
    """MH -> MH payload relayed through the static network."""

    dst_mh_id: str
    kind: str
    inner: object


class _MobileTransport(MutexTransport):
    """Transport between MHs: uplink to the local MSS, then search."""

    def __init__(self, mutex: "L1Mutex", mh_id: str) -> None:
        self._mutex = mutex
        self._mh_id = mh_id

    def peers(self) -> List[str]:
        return [m for m in self._mutex.mh_ids if m != self._mh_id]

    def send(self, dst: str, kind: str, payload: object) -> None:
        mh = self._mutex.network.mobile_host(self._mh_id)
        mh.send_to_mss(
            self._mutex.kind_route,
            RoutedPayload(dst, kind, payload),
            self._mutex.scope,
        )


class L1Mutex:
    """Lamport's algorithm run by the N mobile hosts themselves.

    Args:
        network: the simulated system.
        mh_ids: the participating mobile hosts (all must be registered).
        resource: the instrumented critical region.
        cs_duration: how long a holder stays inside the region.
        scope: metrics scope for all L1 traffic.
        on_complete: optional callback ``(mh_id)`` fired when a MH has
            released the region (one full execution finished).
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        resource: CriticalResource,
        cs_duration: float = 1.0,
        scope: str = "L1",
        on_complete: Optional[Callable[[str], None]] = None,
    ) -> None:
        if len(mh_ids) < 2:
            raise ConfigurationError("L1 needs at least two participants")
        self.network = network
        self.mh_ids = list(mh_ids)
        self.resource = resource
        self.cs_duration = cs_duration
        self.scope = scope
        self.on_complete = on_complete
        self.kind_route = f"{scope}.route"
        self.completed: List[Tuple[float, str]] = []
        self._nodes: Dict[str, LamportMutexNode] = {}
        #: mh_id -> scheduled exit event while inside the region
        #: (tracked only under a fault plan, to abort on MH crash).
        self._active: Dict[str, object] = {}
        #: participants whose pending request was disclaimed by a crash
        #: and should be resubmitted when the host recovers.
        self._disclaimed: Set[str] = set()
        for mh_id in self.mh_ids:
            self._attach_mh(mh_id)
        for mss_id in network.mss_ids():
            network.mss(mss_id).register_handler(
                self.kind_route, self._relay
            )
        if network.faults is not None:
            network.faults.add_mh_crash_listener(self._on_mh_crash)
            network.faults.add_mh_recovery_listener(self._on_mh_recover)

    def _attach_mh(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        node = LamportMutexNode(
            node_id=mh_id,
            transport=_MobileTransport(self, mh_id),
            kind_prefix=self.scope,
            # A node's only requests are its own MH's (tag = mh_id).
            on_granted=self._enter_region,
        )
        self._nodes[mh_id] = node
        mh.register_handler(
            f"{self.scope}.request", partial(self._guarded, node.on_request)
        )
        mh.register_handler(
            f"{self.scope}.reply", partial(self._guarded, node.on_reply)
        )
        mh.register_handler(
            f"{self.scope}.release", partial(self._guarded, node.on_release)
        )

    def _guarded(self, handler: Callable[[object], None],
                 message: Message) -> None:
        """Process a protocol message unless its origin is known dead.

        A request in flight when its sender crashed would re-enqueue the
        ghost entry the survivors just disclaimed; such stragglers are
        dropped until the origin recovers (and re-announces)."""
        payload = message.payload
        origin = getattr(payload, "origin", None)
        if origin is not None and self.network.is_mh_crashed(origin):
            self.network.metrics.record_fault("l1.stale_message_dropped")
            return
        handler(payload)

    # ------------------------------------------------------------------

    def request(self, mh_id: str) -> None:
        """Have ``mh_id`` request the critical region.

        The MH must be connected: it is about to transmit N-1 request
        messages over its wireless link.
        """
        if mh_id not in self._nodes:
            raise ConfigurationError(f"{mh_id} is not an L1 participant")
        self._nodes[mh_id].request(tag=mh_id)

    def node(self, mh_id: str) -> LamportMutexNode:
        """The Lamport node running at ``mh_id`` (for tests)."""
        return self._nodes[mh_id]

    # ------------------------------------------------------------------

    def _relay(self, message: Message) -> None:
        routed: RoutedPayload = message.payload
        mss = self.network.mss(message.dst)
        self.network.send_to_mh(
            mss.host_id,
            routed.dst_mh_id,
            Message(
                kind=routed.kind,
                src=message.src,
                dst=routed.dst_mh_id,
                payload=routed.inner,
                scope=self.scope,
            ),
        )

    def _enter_region(self, mh_id: str) -> None:
        if self.network._trace_on:
            self.network._trace.emit(
                "cs.enter", scope=self.scope, src=mh_id
            )
        self.resource.enter(mh_id, info={"algorithm": self.scope})
        event = self.network.scheduler.schedule(
            self.cs_duration, self._exit_region, mh_id
        )
        if self.network.faults is not None:
            self._active[mh_id] = event

    def _exit_region(self, mh_id: str) -> None:
        self._active.pop(mh_id, None)
        self.resource.leave(mh_id)
        if self.network._trace_on:
            self.network._trace.emit(
                "cs.exit", scope=self.scope, src=mh_id
            )
        mh = self.network.mobile_host(mh_id)
        if not mh.is_connected:
            # The holder left its cell before releasing: L1 simply has no
            # provision for this -- the release stays unsent and the
            # system blocks (the drawback Section 3.1.1 points out).
            return
        self._nodes[mh_id].release(tag=mh_id)
        self.completed.append((self.network.scheduler.now, mh_id))
        if self.on_complete is not None:
            self.on_complete(mh_id)

    # ------------------------------------------------------------------
    # MH crash tolerance
    # ------------------------------------------------------------------

    def _on_mh_crash(self, mh_id: str) -> None:
        """A participant crashed: abort its access and disclaim its
        requests at the surviving participants.

        The crashed node's queue entries can never be released by the
        node itself (its memory is gone), so the survivors purge them
        locally -- otherwise the distributed queue head would point at
        a ghost forever and mutual exclusion would stall system-wide.
        """
        if mh_id not in self._nodes:
            return
        node = self._nodes[mh_id]
        event = self._active.pop(mh_id, None)
        if event is not None:
            event.cancel()
            self.resource.leave(mh_id)
            self.network.metrics.record_fault("l1.grant_aborted_by_crash")
            if self.network._trace_on:
                self.network._trace.emit(
                    "cs.exit",
                    scope=self.scope,
                    src=mh_id,
                    aborted=True,
                    reason="mh.crash",
                )
        had_pending = bool(node.pending_tags())
        node.reset_volatile()
        if had_pending:
            self._disclaimed.add(mh_id)
        purged = 0
        for peer_id, peer in self._nodes.items():
            if peer_id != mh_id:
                purged += peer.forget_origin(mh_id)
        if purged or had_pending:
            self.network.metrics.record_fault("l1.requests_disclaimed")

    def _on_mh_recover(self, mh_id: str) -> None:
        """Rebuild what the amnesiac rejoiner needs to be a safe peer.

        The recovered node's queue is empty: if the survivors did not
        retransmit their outstanding requests, the rejoiner would order
        only its own post-recovery requests and two nodes could sit at
        their queue heads simultaneously -- a mutual-exclusion
        violation.  Every survivor therefore re-announces its pending
        *and held* requests to the rejoiner, and a request the crash
        disclaimed is resubmitted now that the host can transmit."""
        for peer_id, peer in self._nodes.items():
            if peer_id != mh_id:
                peer.reannounce_to(mh_id)
        if mh_id in self._disclaimed and mh_id in self._nodes:
            self._disclaimed.discard(mh_id)
            self.request(mh_id)
