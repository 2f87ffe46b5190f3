"""Regional (two-level) search: the [3]-style search/inform compromise.

The paper cites Awerbuch & Peleg ("Concurrent online tracking of mobile
users") as the theoretical treatment of the search-vs-inform trade-off
for individual mobile users.  This protocol is a practical two-level
instance of that idea, sitting between the extremes already provided:

* :class:`~repro.net.search.HomeAgentSearch` informs on *every* move
  and searches in O(1);
* :class:`~repro.net.search.BroadcastSearch` never informs and probes
  all M-1 MSSs;
* **RegionalSearch** partitions the M MSSs into regions of size R.
  Each MH has a *home directory* (a fixed MSS) that records only which
  region the MH is in -- updated only on the fraction of moves that
  cross a region boundary.  A search asks the home directory (query +
  reply), then probes the R MSSs of the recorded region in parallel
  (plus the reply and the payload forward).

Costs: maintenance ``~ f_region * MOB`` fixed messages (``f_region`` =
fraction of region-crossing moves); search ``~ R + 4`` fixed messages.
Tuning R trades one against the other -- at R=1 this degenerates to a
per-cell home agent, at R=M to pure broadcast with a useless directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigurationError, UnknownHostError
from repro.net.search import (
    MAINTENANCE_SCOPE,
    OutcomeCallback,
    SearchProtocol,
    home_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class RegionalSearch(SearchProtocol):
    """Two-level search over a static partition of the MSSs."""

    def __init__(self, region_size: int = 4) -> None:
        if region_size < 1:
            raise ConfigurationError("region_size must be >= 1")
        self.region_size = region_size
        #: home directory content: mh_id -> region index.
        self._region_of_mh: Dict[str, int] = {}
        self.region_crossings = 0

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def region_index(self, network: "Network", mss_id: str) -> int:
        """Region of ``mss_id`` (consecutive blocks of ``region_size``)."""
        mss_ids = network.mss_ids()
        try:
            position = mss_ids.index(mss_id)
        except ValueError:
            raise UnknownHostError(f"unknown MSS: {mss_id}") from None
        return position // self.region_size

    def region_members(
        self, network: "Network", region: int
    ) -> List[str]:
        """The MSSs belonging to ``region``."""
        mss_ids = network.mss_ids()
        start = region * self.region_size
        return mss_ids[start:start + self.region_size]

    # ------------------------------------------------------------------
    # Maintenance: inform only on region-crossing joins
    # ------------------------------------------------------------------

    def on_mh_joined(
        self, network: "Network", mh_id: str, mss_id: str
    ) -> None:
        new_region = self.region_index(network, mss_id)
        old_region = self._region_of_mh.get(mh_id)
        if old_region == new_region:
            return  # intra-region move: the directory stays correct
        self._region_of_mh[mh_id] = new_region
        if old_region is not None:
            self.region_crossings += 1
        if home_of(network, mh_id) != mss_id:
            network.metrics.record_fixed(MAINTENANCE_SCOPE)

    # ------------------------------------------------------------------
    # Search: home directory + regional probe
    # ------------------------------------------------------------------

    def search(
        self,
        network: "Network",
        src_mss_id: str,
        mh_id: str,
        scope: str,
        callback: OutcomeCallback,
    ) -> None:
        # Query + reply to the home directory.
        self._probe(network, scope, src_mss_id, mh_id, 2,
                    home=home_of(network, mh_id))
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._probe_region, network, src_mss_id, mh_id, scope,
            callback,
        )

    def _probe_region(self, network: "Network", src_mss_id: str,
                      mh_id: str, scope: str,
                      callback: OutcomeCallback) -> None:
        region = self._region_of_mh.get(mh_id)
        if region is None:
            # Nothing recorded yet (never moved since setup): the
            # directory was primed at registration time, so this only
            # happens for hosts the protocol has never seen; fall back
            # to probing region 0 onwards via a full sweep.
            members = network.mss_ids()
        else:
            members = self.region_members(network, region)
        # Parallel probes within the region + one positive reply; a MH
        # in transit is looked for in its region again once it lands.
        probes = len(members) + 1
        self._probe(network, scope, src_mss_id, mh_id, probes)
        network.scheduler.post(
            2 * network.config.fixed_latency(network.rng),
            self._land, network, mh_id, callback, 2 + probes,
            self._probe_region, network, src_mss_id, mh_id, scope,
            callback,
        )
