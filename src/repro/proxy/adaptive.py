"""Adaptive proxy scope: the paper's "less static solutions".

Section 5 closes with: a totally fixed association "is not always a
desirable solution because a proxy has to be informed of every move
... thus, we need to look for less static solutions in which the
association between the MHs and proxies change, depending on the
mobility of hosts."

:class:`AdaptiveProxyPolicy` implements exactly that: each MH starts
*fixed* (its home MSS tracks it), but the home proxy demotes a MH to
*local* mode once it observes too many moves without any delivery
(stop paying informs, pay a search per use instead), and promotes it
back to fixed mode once deliveries dominate again (one catch-up inform
refreshes the register).  The switch thresholds express the
move-to-use ratio at which the E11 curves cross.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigurationError
from repro.proxy.policy import FixedProxyPolicy, _deliver_searched

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.proxy.manager import ProxyManager

#: register reads that may mislead one tracked delivery before it
#: falls back to a search.
_MAX_TRACKED_ATTEMPTS = 4


class AdaptiveProxyPolicy(FixedProxyPolicy):
    """Per-MH switching between fixed and local proxy association.

    The fixed policy (home MSS, register, informs, tracked delivery)
    plus its switching rule; an untracked MH is served by the local
    policy's searched delivery.

    Args:
        demote_after_moves: consecutive moves without a delivery after
            which a MH's tracking is dropped (fixed -> local).
        promote_after_uses: consecutive deliveries without a move after
            which tracking resumes (local -> fixed; costs one catch-up
            inform).
    """

    def __init__(
        self,
        demote_after_moves: int = 3,
        promote_after_uses: int = 3,
    ) -> None:
        if demote_after_moves < 1 or promote_after_uses < 1:
            raise ConfigurationError("switch thresholds must be >= 1")
        super().__init__()
        self.demote_after_moves = demote_after_moves
        self.promote_after_uses = promote_after_uses
        #: per-MH mode: True = fixed (tracked), False = local.
        self.tracked: Dict[str, bool] = {}
        self._moves_streak: Dict[str, int] = {}
        self._uses_streak: Dict[str, int] = {}
        self.demotions = 0
        self.promotions = 0

    def wire(self, manager: "ProxyManager") -> None:
        for mh_id in manager.mh_ids:
            if manager.network.mobile_host(mh_id).current_mss_id is None:
                raise ConfigurationError(
                    f"{mh_id} must be connected at setup"
                )
            self.tracked[mh_id] = True
            self._moves_streak[mh_id] = 0
            self._uses_streak[mh_id] = 0
        super().wire(manager)

    def proxy_of(self, mh_id: str) -> str:
        home = super().proxy_of(mh_id)
        if self.tracked[mh_id]:
            return home
        mh = self._manager.network.mobile_host(mh_id)
        return mh.current_mss_id or home

    def proxy_for_uplink(self, mh_id: str, receiving_mss_id: str) -> str:
        if self.tracked.get(mh_id, False):
            return self.assignment[mh_id]
        return receiving_mss_id

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------

    def _on_join(self, mss_id: str, mh_id: str,
                 prev_mss_id: Optional[str]) -> None:
        if mh_id not in self.assignment:
            return
        self._moves_streak[mh_id] += 1
        self._uses_streak[mh_id] = 0
        if not self.tracked[mh_id]:
            return  # untracked: moves are free
        if self._moves_streak[mh_id] >= self.demote_after_moves:
            # Too mobile to track: the home proxy gives up on this MH.
            self.tracked[mh_id] = False
            self.demotions += 1
            return
        super()._on_join(mss_id, mh_id, prev_mss_id)

    def on_mh_crashed(self, mh_id: str) -> None:
        super().on_mh_crashed(mh_id)
        if mh_id in self.assignment:
            self._uses_streak[mh_id] = 0

    def _note_use(self, mh_id: str, located_at: str,
                  message: object = None) -> None:
        self._uses_streak[mh_id] += 1
        self._moves_streak[mh_id] = 0
        if (
            not self.tracked[mh_id]
            and self._uses_streak[mh_id] >= self.promote_after_uses
        ):
            # Stable again: resume tracking with one catch-up inform.
            self.tracked[mh_id] = True
            self.promotions += 1
            manager = self._manager
            session = manager.network.mobile_host(mh_id).session
            self.location_register.update(mh_id, located_at, session)
            if located_at != self.assignment[mh_id]:
                self.inform_messages += 1
                manager.network.metrics.record_fixed(manager.scope)

    def _note_searched_use(self, mh_id: str, src_mss_id: str,
                           message: object) -> None:
        mh = self._manager.network.mobile_host(mh_id)
        self._note_use(mh_id, mh.current_mss_id or src_mss_id)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, manager, src_mss_id, mh_id, kind, payload,
                on_missed=None) -> None:
        if self.tracked[mh_id]:
            super().deliver(
                manager, src_mss_id, mh_id, kind, payload, on_missed
            )
        else:
            self._search(manager, src_mss_id, mh_id, kind, payload,
                         on_missed)

    def _deliver_tracked(self, manager, src_mss_id, mh_id, kind, payload,
                         on_missed, attempts: int) -> None:
        if attempts >= _MAX_TRACKED_ATTEMPTS:
            # The register keeps misleading us (informs still in
            # flight, or the host bouncing between cells): give up on
            # tracking for this delivery and search.
            manager.stale_deliveries += 1
            self._search(manager, src_mss_id, mh_id, kind, payload,
                         on_missed)
            return
        super()._deliver_tracked(
            manager, src_mss_id, mh_id, kind, payload, on_missed, attempts
        )

    def _on_delivered(self, mh_id: str, at_mss_id: str):
        return partial(self._note_use, mh_id, at_mss_id)

    def _search(self, manager, src_mss_id, mh_id, kind, payload,
                on_missed) -> None:
        _deliver_searched(
            manager, src_mss_id, mh_id, kind, payload, on_missed,
            partial(self._note_searched_use, mh_id, src_mss_id),
        )
