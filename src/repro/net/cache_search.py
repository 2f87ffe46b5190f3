"""Caching search: temporary location caches at MSSs.

The paper notes (Section 4.1) that the network-layer protocol of its
reference [10] keeps no permanent per-MH location state but "may be
cached temporarily at a MSS".  This protocol implements that idea:

* each MSS remembers where it last found each MH;
* a search first probes the cached MSS (query + reply, two probe
  messages); a hit adds just the forward;
* a miss (no cache entry, or the MH moved since) falls back to the
  broadcast sweep of the other M-1 MSSs and refreshes the cache.

No maintenance traffic is ever sent on moves -- staleness is paid at
search time, the opposite end of the search/inform spectrum from
:class:`~repro.net.search.HomeAgentSearch`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Tuple

from repro.net.search import OutcomeCallback, SearchOutcome, SearchProtocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class CachingSearch(SearchProtocol):
    """Broadcast search with per-MSS location caches."""

    def __init__(self) -> None:
        #: (searching MSS, MH) -> MSS where the MH was last found.
        self._cache: Dict[Tuple[str, str], str] = {}
        self.hits = 0
        self.misses = 0

    def on_mh_crashed(self, network: "Network", mh_id: str) -> None:
        # Every cached location for the crashed host points at a cell it
        # silently vanished from; purge rather than pay a guaranteed
        # 2-probe miss at every caching MSS after the host recovers.
        stale = [key for key in self._cache if key[1] == mh_id]
        for key in stale:
            del self._cache[key]

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
    ) -> None:
        cached = self._cache.get((src_mss_id, mh_id))
        if cached is None:
            self._broadcast(network, src_mss_id, mh_id, scope, callback, 0)
            return
        # Probe the cached location first: query + reply.
        self._probe(network, scope, src_mss_id, mh_id, 2)
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._check_cached, network, src_mss_id, mh_id, cached, scope,
            callback,
        )

    def _check_cached(self, network: "Network", src_mss_id: str, mh_id: str,
                      cached_mss_id: str, scope: str,
                      callback: OutcomeCallback) -> None:
        mh = network.mobile_host(mh_id)
        if mh.is_connected and mh.current_mss_id == cached_mss_id:
            self.hits += 1
            callback(SearchOutcome(mh_id, cached_mss_id, False, 2))
            return
        # Stale entry (the MH moved, is mid-move, or disconnected):
        # fall back to the broadcast sweep.
        self.misses += 1
        self._broadcast(network, src_mss_id, mh_id, scope, callback, 2)

    def _broadcast(self, network: "Network", src_mss_id: str, mh_id: str,
                   scope: str, callback: OutcomeCallback,
                   extra_probes: int) -> None:
        others = [m for m in network.mss_ids() if m != src_mss_id]
        probes = len(others) + 1  # queries + the positive reply
        self._probe(network, scope, src_mss_id, mh_id, probes)
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._land, network, mh_id,
            partial(self._found, src_mss_id, callback), probes + extra_probes,
            self._broadcast, network, src_mss_id, mh_id, scope, callback, 0,
        )

    def _found(self, src_mss_id: str, callback: OutcomeCallback,
               outcome: SearchOutcome) -> None:
        """Remember where ``src_mss_id`` found the MH, then report it."""
        if not outcome.disconnected:
            self._cache[(src_mss_id, outcome.mh_id)] = outcome.mss_id
        callback(outcome)
