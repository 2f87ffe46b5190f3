"""Search protocols: locating a mobile host within the static network.

The paper prices "locate a MH and forward a message to its current local
MSS" as the scalar ``C_search`` and notes that, in the worst case, a
source MSS must contact each of the other M-1 MSSs.  Three protocols are
provided:

* :class:`AbstractSearch` — the paper's accounting: one search operation
  is charged ``C_search`` (it *includes* the forward to the located
  MSS).  Used by every exact-match experiment.
* :class:`BroadcastSearch` — a measured protocol that actually probes
  the other MSSs and counts each probe as a fixed-network message, so
  the inequality ``C_search >= C_fixed`` is observed rather than
  assumed (ablation A1).
* :class:`HomeAgentSearch` — a measured protocol in the style of the
  mobile-IP location directories the paper cites ([6], [10]): each MH
  has a home MSS kept up to date on every move; a search costs a
  constant number of fixed messages plus per-move maintenance traffic.

A search never fails: a MH in transit between cells is re-examined until
it lands (the model guarantees it eventually joins some cell), and a
disconnected MH resolves to a *disconnected* outcome reported by the MSS
of the cell where it disconnected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.errors import UnknownHostError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

MAINTENANCE_SCOPE = "search-maintenance"


class SearchOutcome(NamedTuple):
    """Result of locating a mobile host.

    Attributes:
        mh_id: the host that was searched for.
        mss_id: current local MSS if the host is connected, else the MSS
            of the cell where it disconnected.
        disconnected: ``True`` if the host is disconnected.
        probes: number of concrete probe messages this search sent
            (0 for :class:`AbstractSearch`).
        gave_up: ``True`` when :meth:`Network.send_to_mh` exhausted its
            delivery-attempt budget instead of observing a disconnect.
    """

    mh_id: str
    mss_id: str
    disconnected: bool
    probes: int
    gave_up: bool = False


class SearchProtocol:
    """Interface implemented by all search protocols."""

    #: whether one search charge already covers forwarding the payload
    #: to the located MSS (true only for the abstract protocol).
    includes_forward = True

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        """Locate ``mh_id`` on behalf of ``src_mss_id``.

        ``callback`` fires exactly once, after a protocol-dependent
        delay, with the :class:`SearchOutcome`.
        """
        raise NotImplementedError

    def on_mh_joined(
        self, network: "Network", mh_id: str, mss_id: str
    ) -> None:
        """Hook invoked whenever a MH joins a cell.

        Protocols that maintain location state (home agents) override
        this; the default is a no-op.
        """

    def on_mh_crashed(self, network: "Network", mh_id: str) -> None:
        """Hook invoked when a MH crashes (fault injection).

        Protocols that cache location state override this to purge
        entries for the crashed host -- they point at a cell the host
        silently vanished from; the default is a no-op.
        """

    def record_forward(self, network: "Network", scope: str) -> None:
        """Account for forwarding the payload after a successful search.

        Only called when :attr:`includes_forward` is ``False``.
        """
        raise NotImplementedError


class AbstractSearch(SearchProtocol):
    """The paper's scalar-cost search: each operation costs ``C_search``.

    Location is resolved from the simulator's ground truth after
    ``search_delay``; the charge covers both the lookup and the forward,
    exactly matching the cost expressions in Sections 3-4.
    """

    includes_forward = True

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        network.metrics.record_search(scope)
        if network._trace_on:
            network._batch_search_charge(scope, src_mss_id, mh_id)
        self._resolve(network, mh_id, callback, first_attempt=True)

    def _resolve(
        self,
        network: "Network",
        mh_id: str,
        callback: Callable[[SearchOutcome], None],
        first_attempt: bool,
    ) -> None:
        delay = (
            network.config.search_delay
            if first_attempt
            else network.config.search_retry_delay
        )
        network.scheduler.schedule(
            delay, self._complete, network, mh_id, callback
        )

    def _complete(
        self,
        network: "Network",
        mh_id: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        mh = network.mobile_host(mh_id)
        if mh.is_disconnected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.disconnect_mss_id,
                    disconnected=True,
                    probes=0,
                )
            )
        elif mh.is_connected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.current_mss_id,
                    disconnected=False,
                    probes=0,
                )
            )
        else:  # in transit: poll again until the MH lands somewhere
            self._resolve(network, mh_id, callback, first_attempt=False)


class BroadcastSearch(SearchProtocol):
    """Measured search: probe the other M-1 MSSs over the fixed network.

    Every probe and the single positive reply are recorded as
    ``SEARCH_PROBE`` messages (priced at ``C_fixed``), so benchmarks can
    compare the *empirical* search cost with the abstract ``C_search``.
    The payload forward after a successful search is one more probe-priced
    message (:meth:`record_forward`).
    """

    includes_forward = False

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        self._attempt(network, src_mss_id, mh_id, scope, callback)

    def _attempt(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        others = [m for m in network.mss_ids() if m != src_mss_id]
        # All other MSSs are queried in parallel; the one hosting (or the
        # one that saw the disconnect) replies.  Probes = queries + reply.
        probes = len(others) + 1
        network.metrics.record_search_probe(scope, count=probes)
        if network._trace_on:
            network._batch_search_probes(scope, src_mss_id, mh_id, None,
                                         None, {"count": probes})
        round_trip = 2 * network.config.fixed_latency(network.rng)
        network.scheduler.schedule(
            round_trip,
            self._complete,
            network,
            src_mss_id,
            mh_id,
            scope,
            callback,
            probes,
        )

    def _complete(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
        probes: int,
    ) -> None:
        mh = network.mobile_host(mh_id)
        if mh.is_disconnected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.disconnect_mss_id,
                    disconnected=True,
                    probes=probes,
                )
            )
        elif mh.is_connected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.current_mss_id,
                    disconnected=False,
                    probes=probes,
                )
            )
        else:  # in transit when the probes landed: re-probe later
            network.scheduler.schedule(
                network.config.search_retry_delay,
                self._attempt,
                network,
                src_mss_id,
                mh_id,
                scope,
                callback,
            )

    def record_forward(self, network: "Network", scope: str) -> None:
        network.metrics.record_search_probe(scope, count=1)


class HomeAgentSearch(SearchProtocol):
    """Measured search via per-MH home agents (mobile-IP style).

    Each MH is assigned a home MSS.  On every join, the new MSS updates
    the home agent (one fixed message, accounted under
    ``search-maintenance``).  A search is then query + reply to the home
    agent (two probe messages) regardless of M; the payload forward is a
    third.  This trades per-move *inform* traffic for cheap searches --
    the same search/inform trade-off Section 4 studies for groups.
    """

    includes_forward = False

    def __init__(self) -> None:
        self._home: dict[str, str] = {}
        self._last_known: dict[str, str] = {}

    def home_of(self, network: "Network", mh_id: str) -> str:
        """The home MSS for ``mh_id`` (assigned deterministically)."""
        if mh_id not in self._home:
            mss_ids = network.mss_ids()
            if not mss_ids:
                raise UnknownHostError("no MSSs registered")
            index = hash(mh_id) % len(mss_ids)
            self._home[mh_id] = sorted(mss_ids)[index]
        return self._home[mh_id]

    def on_mh_joined(
        self, network: "Network", mh_id: str, mss_id: str
    ) -> None:
        self._last_known[mh_id] = mss_id
        home = self.home_of(network, mh_id)
        if home != mss_id:
            network.metrics.record_fixed(MAINTENANCE_SCOPE)

    def on_mh_crashed(self, network: "Network", mh_id: str) -> None:
        # The home assignment is permanent, but the last-known cell is
        # now a ghost entry: drop it until the host rejoins somewhere.
        self._last_known.pop(mh_id, None)

    def record_forward(self, network: "Network", scope: str) -> None:
        network.metrics.record_search_probe(scope, count=1)

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        # Query + reply to the home agent.
        network.metrics.record_search_probe(scope, count=2)
        if network._trace_on:
            network._batch_search_probes(
                scope, src_mss_id, mh_id, None, None,
                {"count": 2, "home": self.home_of(network, mh_id)},
            )
        round_trip = 2 * network.config.fixed_latency(network.rng)
        network.scheduler.schedule(
            round_trip, self._complete, network, mh_id, scope, callback
        )

    def _complete(
        self,
        network: "Network",
        mh_id: str,
        scope: str,
        callback: Callable[[SearchOutcome], None],
    ) -> None:
        mh = network.mobile_host(mh_id)
        if mh.is_disconnected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.disconnect_mss_id,
                    disconnected=True,
                    probes=2,
                )
            )
        elif mh.is_connected:
            callback(
                SearchOutcome(
                    mh_id=mh_id,
                    mss_id=mh.current_mss_id,
                    disconnected=False,
                    probes=2,
                )
            )
        else:
            network.scheduler.schedule(
                network.config.search_retry_delay,
                self._complete,
                network,
                mh_id,
                scope,
                callback,
            )
