"""Metrics accounting for every transmission in the simulator.

Counts are kept per ``(category, scope)`` where *scope* is a free-form
label naming the algorithm (or phase) that caused the traffic, e.g.
``"L2"`` or ``"lv-update"``.  Mobile-host energy is tracked separately:
each wireless transmission or reception at a MH costs one energy unit,
mirroring the paper's "battery consumption proportional to the number of
wireless messages" accounting.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.metrics.cost import CostModel


class Category(str, Enum):
    """Transmission categories priced by :class:`CostModel`."""

    FIXED = "fixed"
    """A point-to-point message between two MSSs."""

    WIRELESS = "wireless"
    """A message over a wireless hop (either direction)."""

    SEARCH = "search"
    """One abstract search operation (priced at ``c_search``)."""

    SEARCH_PROBE = "search_probe"
    """A concrete probe message of a measured search protocol.  Probes
    travel the fixed network and are priced at ``c_fixed``; they are kept
    distinct from :attr:`FIXED` so benches can compare the empirical
    search cost against the abstract ``c_search``."""


DEFAULT_SCOPE = "default"

# Hot-path aliases: ``Category.FIXED`` goes through the enum metaclass
# on every access; the collector records millions of times per run, so
# bind the members once at import.
_FIXED = Category.FIXED
_WIRELESS = Category.WIRELESS
_SEARCH = Category.SEARCH
_SEARCH_PROBE = Category.SEARCH_PROBE


def _scope_then_category(item) -> Tuple[str, str]:
    """Report order of a ``((category, scope), count)`` item."""
    (category, scope), _ = item
    return scope, category.value


class MetricsSnapshot(NamedTuple):
    """An immutable copy of all counters, used to measure deltas."""

    counts: Dict[tuple, int]
    energy_tx: Dict[str, int]
    energy_rx: Dict[str, int]
    #: fault/recovery event counts (drops, retransmits, crashes, ...),
    #: keyed by event name; empty in fault-free runs.  The default is
    #: one shared empty dict: a snapshot is never written to.
    faults: Dict[str, int] = {}
    #: one entry per completed MSS-crash recovery: simulated time from
    #: the crash until the last orphaned MH re-registered.
    recovery_times: Tuple[float, ...] = ()

    def total(self, category: Category, scope: Optional[str] = None) -> int:
        """Total count for ``category`` (optionally restricted to scope)."""
        if scope is not None:
            return self.counts.get((category, scope), 0)
        return sum(
            count for (cat, _), count in self.counts.items() if cat == category
        )

    def scopes(self) -> set:
        """All scope labels present in the snapshot."""
        return {scope for (_, scope) in self.counts}

    def energy(self, mh_id: Optional[str] = None) -> int:
        """Energy units consumed at ``mh_id`` (or all MHs combined)."""
        if mh_id is not None:
            return self.energy_tx.get(mh_id, 0) + self.energy_rx.get(mh_id, 0)
        return sum(self.energy_tx.values()) + sum(self.energy_rx.values())

    def fault_total(self, name: Optional[str] = None) -> int:
        """Count of fault events named ``name`` (or all fault events)."""
        if name is not None:
            return self.faults.get(name, 0)
        return sum(self.faults.values())

    def cost(
        self, model: CostModel, scope: Optional[str] = None
    ) -> float:
        """Price the snapshot in the paper's cost currency.

        Abstract searches are priced at ``c_search``; concrete search
        probes at ``c_fixed`` each (they are real fixed-network
        messages).
        """
        return (
            self.total(Category.FIXED, scope) * model.c_fixed
            + self.total(Category.WIRELESS, scope) * model.c_wireless
            + self.total(Category.SEARCH, scope) * model.c_search
            + self.total(Category.SEARCH_PROBE, scope) * model.c_fixed
        )

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters accumulated since ``earlier`` was taken."""
        counts = Counter(self.counts)
        counts.subtract(Counter(earlier.counts))
        tx = Counter(self.energy_tx)
        tx.subtract(Counter(earlier.energy_tx))
        rx = Counter(self.energy_rx)
        rx.subtract(Counter(earlier.energy_rx))
        faults = Counter(self.faults)
        faults.subtract(Counter(earlier.faults))
        return MetricsSnapshot(
            counts={k: v for k, v in counts.items() if v},
            energy_tx={k: v for k, v in tx.items() if v},
            energy_rx={k: v for k, v in rx.items() if v},
            faults={k: v for k, v in faults.items() if v},
            recovery_times=self.recovery_times[
                len(earlier.recovery_times):
            ],
        )


class MetricsCollector:
    """Mutable accumulator for transmission counts and MH energy.

    Counters are plain dicts incremented via ``dict.get``: unlike
    :class:`collections.Counter`, a missing key never dispatches into a
    Python-level ``__missing__``, which matters because every simulated
    transmission lands here.
    """

    __slots__ = ("_counts", "_energy_tx", "_energy_rx", "_faults",
                 "_recovery_times")

    def __init__(self) -> None:
        self._counts: Dict[tuple, int] = {}
        self._energy_tx: Dict[str, int] = {}
        self._energy_rx: Dict[str, int] = {}
        self._faults: Dict[str, int] = {}
        self._recovery_times: List[float] = []

    def record_fixed(self, scope: str = DEFAULT_SCOPE, count: int = 1) -> None:
        """Record ``count`` fixed-network messages under ``scope``."""
        counts = self._counts
        key = (_FIXED, scope)
        counts[key] = counts.get(key, 0) + count

    def record_wireless_tx(
        self, mh_id: str, scope: str = DEFAULT_SCOPE
    ) -> None:
        """Record a wireless transmission originated by MH ``mh_id``."""
        counts = self._counts
        key = (_WIRELESS, scope)
        counts[key] = counts.get(key, 0) + 1
        energy = self._energy_tx
        energy[mh_id] = energy.get(mh_id, 0) + 1

    def record_wireless_rx(
        self, mh_id: str, scope: str = DEFAULT_SCOPE
    ) -> None:
        """Record a wireless message received by MH ``mh_id``."""
        counts = self._counts
        key = (_WIRELESS, scope)
        counts[key] = counts.get(key, 0) + 1
        energy = self._energy_rx
        energy[mh_id] = energy.get(mh_id, 0) + 1

    def record_wireless_bulk(
        self,
        scope: str = DEFAULT_SCOPE,
        tx: int = 0,
        rx: int = 0,
        mh_id: str = "mh-crowd",
    ) -> None:
        """Record many wireless messages in one O(1) update.

        The scale substrate's batched cohort operations
        (:mod:`repro.scale`) bill thousands of uplinks at once;
        recording them one ``record_wireless_tx`` call (and one energy
        dict entry) per MH would reintroduce exactly the per-MH memory
        growth the store exists to avoid.  Energy is aggregated under
        the single ``mh_id`` pseudo-host (default the crowd id), so
        totals stay exact while the dicts stay O(1) in N.
        """
        if tx <= 0 and rx <= 0:
            return
        counts = self._counts
        key = (_WIRELESS, scope)
        counts[key] = counts.get(key, 0) + tx + rx
        if tx > 0:
            energy = self._energy_tx
            energy[mh_id] = energy.get(mh_id, 0) + tx
        if rx > 0:
            energy = self._energy_rx
            energy[mh_id] = energy.get(mh_id, 0) + rx

    def record_search(self, scope: str = DEFAULT_SCOPE) -> None:
        """Record one abstract search operation."""
        counts = self._counts
        key = (_SEARCH, scope)
        counts[key] = counts.get(key, 0) + 1

    def record_search_probe(
        self, scope: str = DEFAULT_SCOPE, count: int = 1
    ) -> None:
        """Record ``count`` concrete probe messages of a measured search."""
        counts = self._counts
        key = (_SEARCH_PROBE, scope)
        counts[key] = counts.get(key, 0) + count

    def record_fault(self, name: str, count: int = 1) -> None:
        """Record ``count`` fault/recovery events named ``name``.

        Names are dotted, namespaced by subsystem: ``"fixed.dropped"``,
        ``"rel.retransmit"``, ``"mss.crash"``, ``"mh.orphaned"``,
        ``"r2.token_regenerated"``, ...  Fault events carry no cost in
        the paper's currency; the *recovery traffic* they provoke is
        recorded through the ordinary categories.
        """
        faults = self._faults
        faults[name] = faults.get(name, 0) + count

    def record_recovery_time(self, duration: float) -> None:
        """Record the time one MSS-crash recovery took (crash until the
        last orphaned MH re-registered)."""
        self._recovery_times.append(duration)

    def fault_total(self, name: Optional[str] = None) -> int:
        """Count of fault events named ``name`` (or all fault events)."""
        return self.snapshot().fault_total(name)

    def total(self, category: Category, scope: Optional[str] = None) -> int:
        """Current count for ``category`` (optionally within ``scope``)."""
        return self.snapshot().total(category, scope)

    def energy(self, mh_id: Optional[str] = None) -> int:
        """Current energy units for one MH (or all MHs)."""
        return self.snapshot().energy(mh_id)

    def cost(self, model: CostModel, scope: Optional[str] = None) -> float:
        """Current total cost priced with ``model``."""
        return self.snapshot().cost(model, scope)

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of all counters at this instant."""
        return MetricsSnapshot(
            counts=dict(self._counts),
            energy_tx=dict(self._energy_tx),
            energy_rx=dict(self._energy_rx),
            faults=dict(self._faults),
            recovery_times=tuple(self._recovery_times),
        )

    def since(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """Counters accumulated since ``earlier``."""
        return self.snapshot().diff(earlier)

    def report(self, model: Optional[CostModel] = None) -> Dict[str, object]:
        """A plain-dict summary suitable for printing or JSON dumping."""
        snap = self.snapshot()
        by_scope: Dict[str, Dict[str, int]] = defaultdict(dict)
        for (category, scope), count in sorted(
            snap.counts.items(), key=_scope_then_category
        ):
            by_scope[scope][category.value] = count
        result: Dict[str, object] = {
            "totals": {
                category.value: snap.total(category) for category in Category
            },
            "by_scope": dict(by_scope),
            "energy_total": snap.energy(),
        }
        if snap.faults:
            result["faults"] = dict(sorted(snap.faults.items()))
        if snap.recovery_times:
            times = snap.recovery_times
            result["recovery"] = {
                "count": len(times),
                "mean": sum(times) / len(times),
                "max": max(times),
            }
        if model is not None:
            result["cost_total"] = snap.cost(model)
            result["cost_by_scope"] = {
                scope: snap.cost(model, scope)
                for scope in sorted(snap.scopes())
            }
        return result
