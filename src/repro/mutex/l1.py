"""Algorithm L1: Lamport's mutual exclusion directly on mobile hosts.

The paper's inefficient baseline (Section 3.1.1).  Every participant is
a MH; every algorithm message is MH -> MH and therefore costs
``2*C_wireless + C_search`` (uplink to the local MSS, search, downlink
from the destination's MSS).  One execution exchanges ``3*(N-1)``
messages, so its total cost is ``3*(N-1)*(2*C_wireless + C_search)`` and
the energy drained from batteries is proportional to ``6*(N-1)``
wireless transmissions/receptions.

The implementation reuses the static Lamport substrate unchanged, the
MH->MH relay every algorithm on the MHs shares, and the shared
:class:`~repro.mutex.resource.Region` -- the only L1-specific code is
the glue between them and the crash rules, which is precisely the
paper's framing.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.mutex.lamport_core import LamportMutexNode, MutexTransport
from repro.mutex.resource import CriticalResource, Region
from repro.net.messages import Message
from repro.net.relay import MhRelay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class _MobileTransport(MutexTransport):
    """Transport between MHs: the MH -> MH relay (uplink, search)."""

    def __init__(self, mutex: "L1Mutex", mh_id: str) -> None:
        self._mutex = mutex
        self._mh_id = mh_id

    def peers(self) -> List[str]:
        return [m for m in self._mutex.mh_ids if m != self._mh_id]

    def send(self, dst: str, kind: str, payload: object) -> None:
        self._mutex._relay.send(
            self._mutex.network.mobile_host(self._mh_id), dst, kind, payload
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
        self.completed: List[Tuple[float, str]] = []
        self._nodes: Dict[str, LamportMutexNode] = {}
        self._relay = MhRelay(network, scope)
        self._region = Region(network, resource, cs_duration, scope, "l1",
                              exited=self._release)
        #: participants whose pending request was disclaimed by a crash
        #: and should be resubmitted when the host recovers.
        self._disclaimed: Set[str] = set()
        for mh_id in self.mh_ids:
            self._attach_mh(mh_id)
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

    def _enter_region(self, mh_id: str) -> None:
        self._region.enter(mh_id, mh_id, {"algorithm": self.scope})

    def _release(self, mh_id: str) -> None:
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
        self._region.crash(mh_id)
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
