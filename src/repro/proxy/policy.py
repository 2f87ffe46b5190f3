"""Proxy scope policies: who is a MH's proxy, and what it knows.

The policy axis of the paper's Section 5 proxy framework.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.proxy.manager import ProxyManager


class LocationRegister:
    """A proxy's session-versioned view of where its MHs are.

    Location informs from different cells travel over different FIFO
    channels and can arrive out of order; applying them blindly can
    leave the register *permanently* stale.  Each inform therefore
    carries the MH's session number (incremented on every attachment,
    and carried by the join message in a real deployment), and the
    register only moves forward.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, tuple] = {}

    def update(self, mh_id: str, mss_id: str, session: int) -> bool:
        """Apply an inform; returns False if it was stale."""
        current = self._entries.get(mh_id)
        if current is not None and session < current[0]:
            return False
        self._entries[mh_id] = (session, mss_id)
        return True

    def purge(self, mh_id: str, session: int) -> None:
        """Tombstone the entry for a crashed MH.

        The location is dropped (it points at a cell the host silently
        vanished from) but the session floor is kept, so in-flight
        informs from *before* the crash cannot resurrect the stale
        location; the post-recovery join carries a higher session and
        repopulates the register normally.
        """
        self._entries[mh_id] = (session, None)

    def get(self, mh_id: str, default: Optional[str] = None):
        entry = self._entries.get(mh_id)
        if entry is None or entry[1] is None:
            return default
        return entry[1]

    def __getitem__(self, mh_id: str) -> str:
        mss_id = self._entries[mh_id][1]
        if mss_id is None:
            raise KeyError(mh_id)
        return mss_id

    def __contains__(self, mh_id: str) -> bool:
        entry = self._entries.get(mh_id)
        return entry is not None and entry[1] is not None


class ProxyPolicy:
    """Interface for proxy scope policies."""

    def wire(self, manager: "ProxyManager") -> None:
        """Attach policy machinery (location registers, hooks)."""

    def proxy_of(self, mh_id: str) -> str:
        """The MSS currently acting as ``mh_id``'s proxy.

        For a fixed policy this is static knowledge any participant may
        use; for a local policy the answer is only known at the MH's
        current cell (other hosts must search).
        """
        raise NotImplementedError

    def proxy_for_uplink(self, mh_id: str, receiving_mss_id: str) -> str:
        """The proxy responsible for an uplink that landed at
        ``receiving_mss_id``.

        For a local policy that *is* the receiving MSS (it was the MH's
        local MSS at send time, even if the MH has since moved on); for
        a fixed policy it is the static assignment.
        """
        return self.proxy_of(mh_id)

    def home_of(self, mh_id: str) -> Optional[str]:
        """The static *home* proxy of ``mh_id``, if the policy has one.

        A home proxy is universally known rendezvous knowledge; a
        policy without a static assignment has none (``None``).
        """
        return None

    def deliver(
        self,
        manager: "ProxyManager",
        src_mss_id: str,
        mh_id: str,
        kind: str,
        payload: object,
        on_missed: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Route a message from a proxy to the MH itself."""
        raise NotImplementedError

    def on_inform(self, mh_id: str, mss_id: str, session: int) -> None:
        """Proxy-side handler for a location inform (default: none)."""

    def on_mh_crashed(self, mh_id: str) -> None:
        """Hook invoked when a managed MH crashes (fault injection).

        Policies that keep location registers override this to purge
        the crashed host's entry; the default is a no-op.
        """


class LocalProxyPolicy(ProxyPolicy):
    """Scope: a MH's proxy is always its current local MSS.

    The association of algorithms L2 and R2.  No inform traffic on
    moves; delivering to a MH from elsewhere costs a search.
    """

    def __init__(self) -> None:
        self._manager: Optional["ProxyManager"] = None

    def wire(self, manager: "ProxyManager") -> None:
        self._manager = manager

    def proxy_of(self, mh_id: str) -> str:
        network = self._manager.network
        mh = network.mobile_host(mh_id)
        if mh.current_mss_id is None:
            raise ConfigurationError(
                f"{mh_id} has no local proxy while {mh.state.value}"
            )
        return mh.current_mss_id

    def proxy_for_uplink(self, mh_id: str, receiving_mss_id: str) -> str:
        # The uplink's receiver was the MH's local MSS at send time --
        # it acts as the proxy even if the MH has since started moving.
        return receiving_mss_id

    def deliver(self, manager, src_mss_id, mh_id, kind, payload,
                on_missed=None) -> None:
        _deliver_searched(
            manager, src_mss_id, mh_id, kind, payload, on_missed
        )


class FixedProxyPolicy(ProxyPolicy):
    """Scope: one proxy MSS per MH, fixed for the MH's lifetime.

    Obligation: the proxy is informed about its MH's location on every
    move (one fixed message from the new cell's MSS), so it can always
    reach the MH without a search -- total separation of mobility from
    the algorithm, at the price of per-move inform traffic.
    """

    def __init__(
        self, assignment: Optional[Dict[str, str]] = None
    ) -> None:
        #: mh_id -> proxy MSS; filled from initial locations if not
        #: given explicitly.
        self.assignment: Dict[str, str] = dict(assignment or {})
        #: the proxy's session-versioned location register.
        self.location_register = LocationRegister()
        self.inform_messages = 0

    def wire(self, manager: "ProxyManager") -> None:
        self._manager = manager
        network = manager.network
        for mh_id in manager.mh_ids:
            mh = network.mobile_host(mh_id)
            if mh_id not in self.assignment:
                if mh.current_mss_id is None:
                    raise ConfigurationError(
                        f"{mh_id} must be connected or explicitly "
                        f"assigned a proxy"
                    )
                self.assignment[mh_id] = mh.current_mss_id
            self.location_register.update(
                mh_id, mh.current_mss_id, mh.session
            )
        # Every join anywhere updates the mover's proxy.
        for mss_id in network.mss_ids():
            network.mss(mss_id).add_join_listener(
                partial(self._on_join, mss_id)
            )

    def proxy_of(self, mh_id: str) -> str:
        try:
            return self.assignment[mh_id]
        except KeyError:
            raise ConfigurationError(
                f"{mh_id} has no assigned proxy"
            ) from None

    def home_of(self, mh_id: str) -> Optional[str]:
        return self.assignment.get(mh_id)

    def _on_join(self, mss_id: str, mh_id: str,
                 prev_mss_id: Optional[str]) -> None:
        if mh_id not in self.assignment:
            return
        proxy = self.assignment[mh_id]
        manager = self._manager
        session = manager.network.mobile_host(mh_id).session
        if mss_id == proxy:
            self.location_register.update(mh_id, mss_id, session)
            return
        # Inform the proxy of the new location (one fixed message,
        # carrying the MH's session so stale informs cannot regress
        # the register).
        self.inform_messages += 1
        manager.network.mss(mss_id).send_fixed(
            proxy,
            manager.kind_inform,
            (mh_id, mss_id, session),
            manager.scope,
        )

    def on_inform(self, mh_id: str, mss_id: str, session: int) -> None:
        """Proxy-side handler: update the location register."""
        self.location_register.update(mh_id, mss_id, session)

    def on_mh_crashed(self, mh_id: str) -> None:
        if mh_id not in self.assignment:
            return
        session = self._manager.network.mobile_host(mh_id).session
        self.location_register.purge(mh_id, session)

    def deliver(self, manager, src_mss_id, mh_id, kind, payload,
                on_missed=None) -> None:
        """One fixed hop to the registered MSS plus one wireless hop.

        No search is ever performed: if the register is momentarily
        stale (a move's inform is still in flight) or the wireless hop
        is lost to a departure, the proxy simply re-reads its register
        -- which the mover's new MSS is about to refresh -- and retries.
        A destination that disconnected resolves to ``on_missed``.
        """
        self._deliver_tracked(
            manager, src_mss_id, mh_id, kind, payload, on_missed, 0
        )

    def _deliver_tracked(self, manager, src_mss_id, mh_id, kind, payload,
                         on_missed, attempts: int) -> None:
        """Attempt at the registered MSS; ``attempts`` counts the earlier
        attempts that a stale register (or a lost hop) sent back."""
        believed = self.location_register.get(mh_id, src_mss_id)
        args = (manager, src_mss_id, mh_id, kind, payload, on_missed,
                attempts)
        if believed == src_mss_id:
            self._attempt(src_mss_id, *args)
            return
        # The proxy -> current-MSS hop is one fixed message.
        network = manager.network
        network.metrics.record_fixed(manager.scope)
        network.scheduler.post(
            network.config.fixed_latency(network.rng), self._attempt,
            believed, *args,
        )

    def _attempt(self, at_mss_id, manager, src_mss_id, mh_id, kind,
                 payload, on_missed, attempts) -> None:
        network = manager.network
        mss = network.mss(at_mss_id)
        retry = partial(self._retry, manager, src_mss_id, mh_id, kind,
                        payload, on_missed, attempts)
        if mss.is_local(mh_id):
            network.send_wireless_down(
                at_mss_id,
                mh_id,
                Message(kind=kind, src=at_mss_id, dst=mh_id,
                        payload=payload, scope=manager.scope),
                on_lost=retry,
                on_delivered=self._on_delivered(mh_id, at_mss_id),
            )
        elif (
            mh_id in mss.disconnected_mhs
            or network.is_mh_crashed(mh_id)
        ):
            # Disconnected here -- or crashed anywhere: a crashed
            # host's vanish flag lives in whichever cell noticed
            # the silence, which need not be the believed one, so
            # without the explicit check the retry loop would spin
            # until the host recovers.
            if on_missed is not None:
                on_missed(mh_id)
        else:
            # Stale register: the inform from the MH's new cell is
            # still in flight; re-read and retry shortly.
            manager.stale_deliveries += 1
            retry()

    def _retry(self, manager, src_mss_id, mh_id, kind, payload, on_missed,
               attempts, lost_message=None) -> None:
        network = manager.network
        network.scheduler.post(
            network.config.search_retry_delay,
            self._deliver_tracked, manager, src_mss_id, mh_id, kind,
            payload, on_missed, attempts + 1,
        )

    def _on_delivered(
        self, mh_id: str, at_mss_id: str
    ) -> Optional[Callable[[Message], None]]:
        """The wireless hop's ``on_delivered`` callback (none here)."""
        return None


def _deliver_searched(
    manager, src_mss_id, mh_id, kind, payload, on_missed,
    on_delivered=None,
) -> None:
    """Nobody tracks the MH: locate it with a search, then one wireless
    hop (retrying across moves, as the network does)."""
    manager.network.send_to_mh(
        src_mss_id,
        mh_id,
        Message(kind=kind, src=src_mss_id, dst=mh_id, payload=payload,
                scope=manager.scope),
        on_delivered=on_delivered,
        on_disconnected=(
            None if on_missed is None
            else partial(_missed, on_missed, mh_id)
        ),
    )


def _missed(on_missed, mh_id, outcome) -> None:
    """A search's disconnected outcome, reported as a missed MH."""
    on_missed(mh_id)
