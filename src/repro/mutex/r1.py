"""Algorithm R1: the token ring formed by the mobile hosts themselves.

The paper's second baseline (Section 3.1.2).  The N MHs are logically
arranged in a unidirectional ring and the token visits every MH whether
it wants the critical region or not.  Every hop is a MH -> MH message
costing ``2*C_wireless + C_search``, so one full traversal costs
``N * (2*C_wireless + C_search)`` -- *independent of K*, the number of
requests actually satisfied.  Every MH pays battery for receiving and
forwarding the token, and a dozing MH is interrupted on every traversal.

R1 is vulnerable to disconnection of *any* member: if the token is
addressed to a disconnected MH the ring stalls until the ring is
re-formed (not modelled -- the stall itself is the measured drawback).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.mutex.resource import CriticalResource, Region
from repro.mutex.ring_core import RingNode, Token
from repro.net.messages import Message
from repro.net.relay import MhRelay, Routed
from repro.net.search import SearchOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class R1Mutex:
    """Le Lann's token ring run directly by the N mobile hosts.

    Args:
        network: the simulated system.
        mh_ids: ring members in ring order.
        resource: the instrumented critical region.
        cs_duration: how long a holder stays inside the region.
        scope: metrics scope for all R1 traffic.
        max_traversals: stop circulating after this many full
            traversals (``None`` = circulate until externally stopped).
        on_complete: optional callback ``(mh_id)`` after each access.
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        resource: CriticalResource,
        cs_duration: float = 1.0,
        scope: str = "R1",
        max_traversals: Optional[int] = None,
        on_complete: Optional[Callable[[str], None]] = None,
        auto_repair: bool = False,
    ) -> None:
        if len(mh_ids) < 2:
            raise ConfigurationError("R1 needs at least two ring members")
        self.network = network
        self.mh_ids = list(mh_ids)
        self.resource = resource
        self.cs_duration = cs_duration
        self.scope = scope
        self.max_traversals = max_traversals
        self.on_complete = on_complete
        #: extension: re-establish the ring among the remaining members
        #: when the token hits a disconnected one (the paper notes R1
        #: "requires the logical ring to be re-established" but defines
        #: no protocol; we implement and charge one).
        self.auto_repair = auto_repair
        self.repairs = 0
        self.kind_token = f"{scope}.token"
        self.kind_reconfig = f"{scope}.reconfig"
        self.completed: List[Tuple[float, str]] = []
        self.finished = False
        self.stalled_on: Optional[str] = None
        self._wants: Dict[str, bool] = {m: False for m in self.mh_ids}
        self._nodes: Dict[str, RingNode] = {}
        self._relay = MhRelay(network, scope, unreachable=self._stall)
        #: back = (mh_id, token, forward): the token moves on at exit.
        self._region = Region(network, resource, cs_duration, scope, "r1",
                              exited=self._exit_region)
        #: members dropped from the ring by a crash repair, eligible for
        #: re-admission when their host recovers.
        self._removed_members: Set[str] = set()
        for mh_id in self.mh_ids:
            self._attach_mh(mh_id)
        if network.faults is not None:
            network.faults.add_mh_crash_listener(self._on_mh_crash)
            network.faults.add_mh_recovery_listener(self._on_mh_recover)

    def _attach_mh(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        node = RingNode(
            node_id=mh_id,
            ring_order=self.mh_ids,
            send=partial(self._forward, mh_id),
            kind_prefix=self.scope,
            on_token=partial(self._on_token, mh_id),
        )
        self._nodes[mh_id] = node
        mh.register_handler(
            self.kind_token, partial(self._deliver_token, node)
        )
        mh.register_handler(
            self.kind_reconfig, partial(self._apply_reconfig, node)
        )

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Inject the token at the first connected ring member."""
        for mh_id in self.mh_ids:
            if self.network.mobile_host(mh_id).is_connected:
                self._nodes[mh_id].inject_token(Token())
                return
        raise ConfigurationError(
            "no connected ring member can hold the initial token"
        )

    def want(self, mh_id: str) -> None:
        """Mark that ``mh_id`` wants the region at its next token visit.

        In Le Lann's scheme there are no request messages: a member
        simply uses the token when it comes around.
        """
        if mh_id not in self._wants:
            raise ConfigurationError(f"{mh_id} is not an R1 member")
        self._wants[mh_id] = True

    #: the name every algorithm takes a request under.
    request = want

    def node(self, mh_id: str) -> RingNode:
        """The ring node at ``mh_id`` (for tests)."""
        return self._nodes[mh_id]

    # ------------------------------------------------------------------
    # Token life cycle
    # ------------------------------------------------------------------

    def _on_token(
        self, mh_id: str, token: Token, forward: Callable[[], None]
    ) -> None:
        if (
            self.max_traversals is not None
            and self._nodes[mh_id].is_head
            and token.traversals >= self.max_traversals
        ):
            self.finished = True
            return
        if self._wants[mh_id]:
            self._wants[mh_id] = False
            self._region.enter(mh_id, (mh_id, token, forward),
                               {"algorithm": self.scope})
        else:
            forward()

    def _exit_region(
        self, back: Tuple[str, Token, Callable[[], None]]
    ) -> None:
        mh_id, _, forward = back
        self.completed.append((self.network.scheduler.now, mh_id))
        if self.on_complete is not None:
            self.on_complete(mh_id)
        forward()

    def _deliver_token(self, node: RingNode, message: Message) -> None:
        node.handle_token(message.payload)

    def _forward(self, src_mh_id: str, dst_mh_id: str, kind: str,
                 token: Token) -> None:
        mh = self.network.mobile_host(src_mh_id)
        if mh.crashed:
            # The holder crashed before it could transmit: the token
            # dies in its memory.
            self._regenerate(src_mh_id, token)
            return
        if not mh.is_connected:
            # The holder is mid-move; it can only transmit once it has
            # joined a new cell.  Retry until reattached.
            self.network.scheduler.post(
                self.network.config.search_retry_delay,
                self._forward,
                src_mh_id,
                dst_mh_id,
                kind,
                token,
            )
            return
        self._relay.send(mh, dst_mh_id, kind, token)

    def _stall(self, detecting_mss_id: str, prev_mh_id: Optional[str],
               routed: Routed, outcome: SearchOutcome) -> None:
        # The token could not reach ``routed.dst_mh_id``.
        if not self.auto_repair:
            # Plain R1 has no provision for disconnected members: the
            # token is undeliverable and mutual exclusion stops
            # system-wide.
            self.stalled_on = routed.dst_mh_id
            return
        self._repair(detecting_mss_id, routed.dst_mh_id, prev_mh_id,
                     routed.inner)

    # ------------------------------------------------------------------
    # Ring re-establishment (extension)
    # ------------------------------------------------------------------

    def _repair(self, detecting_mss_id: str, dead_mh_id: str,
                prev_mh_id: Optional[str], token: Token) -> None:
        """Re-establish the ring without ``dead_mh_id`` and re-route
        the token to its successor.

        The MSS that detected the disconnection notifies every
        surviving member of the new ring (each notification is a full
        MSS -> MH delivery, so one repair costs on the order of
        ``(N-1) * (C_search + C_wireless)`` -- the overhead R2 never
        pays).
        """
        detecting = self.network.mss(detecting_mss_id)
        if dead_mh_id in self.mh_ids:
            self.repairs += 1
            index = self.mh_ids.index(dead_mh_id)
            self.mh_ids.remove(dead_mh_id)
            self._wants.pop(dead_mh_id, None)
            self._nodes.pop(dead_mh_id, None)
            self._removed_members.add(dead_mh_id)
            new_ring = list(self.mh_ids)
            for survivor in new_ring:
                detecting.send_to_mh(
                    survivor, self.kind_reconfig, new_ring, self.scope
                )
            successor = new_ring[index % len(new_ring)]
        else:
            # A member with a stale ring view forwarded to an already
            # removed MH: route the token to the sender's current
            # successor instead.
            new_ring = list(self.mh_ids)
            if prev_mh_id in new_ring:
                index = (new_ring.index(prev_mh_id) + 1) % len(new_ring)
                successor = new_ring[index]
            else:
                successor = new_ring[0]
        # Hand the stranded token onward.
        detecting.send_to_mh(
            successor, self.kind_token, token, self.scope,
            on_disconnected=partial(
                self._stall, detecting_mss_id, None,
                Routed(successor, self.kind_token, token),
            ),
        )

    def _apply_reconfig(self, node: RingNode, message: Message) -> None:
        node.ring_order = list(message.payload)

    # ------------------------------------------------------------------
    # MH crash tolerance
    # ------------------------------------------------------------------

    def _detecting_mss(self, mh_id: str) -> Optional[str]:
        """The station that noticed ``mh_id``'s silence (or any alive
        station when the vouching cell is itself down)."""
        mh = self.network.mobile_host(mh_id)
        candidate = mh.disconnect_mss_id
        if candidate is not None and not self.network.is_mss_crashed(
            candidate
        ):
            return candidate
        return self.network.next_alive_mss(self.network.mss_ids()[0])

    def _on_mh_crash(self, mh_id: str) -> None:
        """A ring member crashed: abort its access; if it held the
        token, either stall (plain R1) or regenerate it at the ring
        formed by the survivors (``auto_repair``)."""
        if self.finished or mh_id not in self._nodes:
            return
        back = self._region.crash(mh_id)
        # A token elsewhere stalls or repairs the ring when it is next
        # addressed to the crashed member; one held here died with it.
        if back is not None:
            self._regenerate(mh_id, back[1])

    def _regenerate(self, mh_id: str, token: Token) -> None:
        """The token died in crashed ``mh_id``'s memory.  Plain R1
        stops system-wide; with ``auto_repair`` the survivors re-form
        the ring and a fresh token (same bookkeeping counters) starts at
        the crashed member's successor."""
        detecting = self._detecting_mss(mh_id) if self.auto_repair else None
        if detecting is None:
            self.stalled_on = mh_id
            return
        self.network.metrics.record_fault("r1.token_regenerated")
        self._repair(detecting, mh_id, None, token)

    def _on_mh_recover(self, mh_id: str) -> None:
        """Re-admit a crash-removed member to the ring (``auto_repair``).

        The recovered host gets a fresh ring node (its pre-crash node
        state died with it), every member learns the new ring order,
        and the rejoiner resumes as an ordinary non-holding member."""
        if (
            self.finished
            or not self.auto_repair
            or mh_id not in self._removed_members
        ):
            return
        self._removed_members.discard(mh_id)
        if len(self.mh_ids) == 0:  # pragma: no cover - defensive
            return
        mh = self.network.mobile_host(mh_id)
        mh.unregister_handler(self.kind_token)
        mh.unregister_handler(self.kind_reconfig)
        self.mh_ids.append(mh_id)
        self._wants[mh_id] = False
        self._attach_mh(mh_id)
        self.network.metrics.record_fault("r1.member_rejoined")
        announcing_mss = mh.current_mss_id
        if announcing_mss is None:  # pragma: no cover - defensive
            announcing_mss = self._detecting_mss(mh_id)
            if announcing_mss is None:
                return
        new_ring = list(self.mh_ids)
        announcer = self.network.mss(announcing_mss)
        for member in new_ring:
            if member != mh_id:
                announcer.send_to_mh(
                    member, self.kind_reconfig, new_ring, self.scope
                )
