"""Search protocols: locating a mobile host within the static network.

The paper prices "locate a MH and forward a message to its current local
MSS" as the scalar ``C_search`` and notes that, in the worst case, a
source MSS must contact each of the other M-1 MSSs.  Five protocols are
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
* :class:`~repro.net.cache_search.CachingSearch` — broadcast search
  behind per-MSS location caches.
* :class:`~repro.net.regional_search.RegionalSearch` — a home directory
  that records only the MH's region, then a probe of that region.

A search never fails: a MH in transit between cells is re-examined until
it lands (the model guarantees it eventually joins some cell), and a
disconnected MH resolves to a *disconnected* outcome reported by the MSS
of the cell where it disconnected.  :class:`SearchProtocol` owns that
landing rule, the probe charge and the forward price; each protocol
states only what it probes and what it does when the MH is in transit.
"""

from __future__ import annotations

import zlib
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


#: receives a search's one outcome.
OutcomeCallback = Callable[[SearchOutcome], None]


def home_of(network: "Network", mh_id: str) -> str:
    """The home MSS of ``mh_id``: a CRC of its id over the sorted MSSs.

    Unlike the built-in string hash, the CRC does not depend on the
    process hash seed, so a run places every home the same way under
    any ``PYTHONHASHSEED``.
    """
    mss_ids = network.mss_ids()
    if not mss_ids:
        raise UnknownHostError("no MSSs registered")
    return sorted(mss_ids)[zlib.crc32(mh_id.encode()) % len(mss_ids)]


class SearchProtocol:
    """Interface implemented by all search protocols.

    A measured protocol pays one probe-priced message to forward the
    payload to the located MSS; its probes already include the reply
    from the MSS where a MH disconnected.
    """

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
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

    def charge_forward(self, network: "Network", scope: str) -> None:
        """Account for forwarding the payload to the located MSS."""
        network.metrics.record_search_probe(scope, count=1)

    def charge_disconnect_reply(self, network: "Network", scope: str) -> None:
        """Account for the disconnect-cell MSS notifying the source."""

    def _probe(self, network: "Network", scope: str, src_mss_id: str,
               mh_id: str, count: int, **detail: str) -> None:
        """Charge ``count`` probe messages, traced as one row."""
        network.metrics.record_search_probe(scope, count=count)
        if network._trace_on:
            network._batch_search_probes(
                scope, src_mss_id, mh_id, None, None,
                {"count": count, **detail},
            )

    def _land(self, network: "Network", mh_id: str, callback: OutcomeCallback,
              probes: int, retry: Callable[..., None], *args: object) -> None:
        """Report where ``mh_id`` is, or ``retry(*args)`` once it lands.

        A disconnected MH resolves at the MSS of the cell where it
        disconnected and a connected one at its current MSS; a MH in
        transit is examined again after ``search_retry_delay``.
        """
        mh = network.mobile_host(mh_id)
        if mh.is_disconnected:
            callback(SearchOutcome(mh_id, mh.disconnect_mss_id, True, probes))
        elif mh.is_connected:
            callback(SearchOutcome(mh_id, mh.current_mss_id, False, probes))
        else:
            network.scheduler.post(
                network.config.search_retry_delay, retry, *args
            )

    def _reland(self, network: "Network", mh_id: str,
                callback: OutcomeCallback, probes: int) -> None:
        """Land, re-examining a MH in transit without probing again."""
        self._land(network, mh_id, callback, probes,
                   self._reland, network, mh_id, callback, probes)


class AbstractSearch(SearchProtocol):
    """The paper's scalar-cost search: each operation costs ``C_search``.

    Location is resolved from the simulator's ground truth after
    ``search_delay``; the charge covers both the lookup and the forward,
    exactly matching the cost expressions in Sections 3-4.  The reply
    from the MSS where a MH disconnected is one fixed message.
    """

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
    ) -> None:
        network.metrics.record_search(scope)
        if network._trace_on:
            network._batch_search_charge(scope, src_mss_id, mh_id)
        network.scheduler.post(
            network.config.search_delay,
            self._reland, network, mh_id, callback, 0,
        )

    def charge_forward(self, network: "Network", scope: str) -> None:
        """The ``C_search`` charge already covers the forward."""

    def charge_disconnect_reply(self, network: "Network", scope: str) -> None:
        network.metrics.record_fixed(scope)


class BroadcastSearch(SearchProtocol):
    """Measured search: probe the other M-1 MSSs over the fixed network.

    Every probe and the single positive reply are recorded as
    ``SEARCH_PROBE`` messages (priced at ``C_fixed``), so benchmarks can
    compare the *empirical* search cost with the abstract ``C_search``.
    A MH in transit when the probes land is searched for afresh.
    """

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
    ) -> None:
        # All other MSSs are queried in parallel; the one hosting (or the
        # one that saw the disconnect) replies.  Probes = queries + reply.
        probes = len([m for m in network.mss_ids() if m != src_mss_id]) + 1
        self._probe(network, scope, src_mss_id, mh_id, probes)
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._land, network, mh_id, callback, probes,
            self.search, network, src_mss_id, mh_id, scope, callback,
        )


class HomeAgentSearch(SearchProtocol):
    """Measured search via per-MH home agents (mobile-IP style).

    Each MH is assigned a home MSS (:func:`home_of`).  On every join,
    the new MSS updates the home agent (one fixed message, accounted
    under ``search-maintenance``).  A search is then query + reply to
    the home agent (two probe messages) regardless of M; the payload
    forward is a third.  This trades per-move *inform* traffic for cheap
    searches -- the same search/inform trade-off Section 4 studies for
    groups.
    """

    def on_mh_joined(
        self, network: "Network", mh_id: str, mss_id: str
    ) -> None:
        if home_of(network, mh_id) != mss_id:
            network.metrics.record_fixed(MAINTENANCE_SCOPE)

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
    ) -> None:
        # Query + reply to the home agent, which is kept up to date: a
        # MH in transit is re-examined without asking it again.
        self._probe(network, scope, src_mss_id, mh_id, 2,
                    home=home_of(network, mh_id))
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._reland, network, mh_id, callback, 2,
        )
