"""The declarative scenario spec.

A :class:`ScenarioSpec` is a pure-data description of one complete
churn experiment: the topology (M support stations, N mobile hosts,
their initial placement), the workload driving protocol traffic, the
mobility and disconnection churn, scheduled mass events (flash crowds,
tunnels, stadium egress, diurnal rate changes), the
:class:`~repro.faults.FaultPlan` it all runs under, the monitor
deadlines, and the expected-outcome assertions that make the scenario a
test and not just a demo.

Specs are built by :mod:`repro.scenario.loader` from plain dicts (JSON
or YAML files, inline dicts in tests) and executed by
:mod:`repro.scenario.runner` under the full
:mod:`repro.monitor` suite.  The spec itself never touches the
simulator -- it is comparable, hashable-by-name, serializable data, so
a scenario means the same thing in the registry, the CLI, CI, and the
pytest plugin.
Part of the declarative chaos-scenario platform (ROADMAP chaos arc).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.faults import FaultPlan

#: bump when the spec schema changes shape incompatibly.
SCHEMA_VERSION = 1

#: workload kinds understood by the runner.
WORKLOAD_KINDS = ("mutex", "groups", "multicast", "proxy", "none")

#: mobility kinds understood by the runner.
MOBILITY_KINDS = ("uniform", "localized", "none")

#: scheduled mass-event kinds understood by the runner.
EVENT_KINDS = (
    "mass_disconnect",  # tunnel / airplane: a cohort drops off the air
    "converge",         # flash crowd: a cohort moves into one cell
    "scatter",          # stadium egress: a cell empties across the map
    "move",             # one scheduled handoff (deterministic races)
    "request",          # one scheduled mutex request
    "set_rate",         # diurnal curves: change workload/mobility rates
)

#: mutex algorithms a scenario workload may name.
MUTEX_ALGORITHMS = ("L1", "L2", "R1", "R2", "R2'", "R2''")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario, fully validated.

    Instances come out of :func:`repro.scenario.loader.load_spec`;
    construct through the loader (not directly) so every field has
    been checked and every nested dict normalized.
    """

    name: str
    title: str = ""
    description: str = ""
    tags: Tuple[str, ...] = ()

    # -- topology ------------------------------------------------------
    n_mss: int = 4
    n_mh: int = 8
    seed: int = 0
    placement: Any = "round_robin"
    search: str = "abstract"

    # -- time ----------------------------------------------------------
    duration: float = 200.0
    #: extra sim-time granted after ``duration`` for in-flight requests
    #: to complete before the ring is stopped and the run drained.
    settle: float = 400.0

    # -- drivers -------------------------------------------------------
    workload: Dict[str, Any] = field(
        default_factory=partial(dict, kind="none")
    )
    mobility: Optional[Dict[str, Any]] = None
    disconnects: Optional[Dict[str, Any]] = None
    events: Tuple[Dict[str, Any], ...] = ()

    # -- adversity -----------------------------------------------------
    faults: Optional[FaultPlan] = None

    # -- certification -------------------------------------------------
    monitors: Dict[str, float] = field(default_factory=dict)
    expect: Dict[str, Any] = field(default_factory=dict)

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict; inverse of the loader."""
        out: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "n_mss": self.n_mss,
            "n_mh": self.n_mh,
            "seed": self.seed,
            "placement": self.placement,
            "search": self.search,
            "duration": self.duration,
            "settle": self.settle,
            "workload": dict(self.workload),
        }
        if self.mobility is not None:
            out["mobility"] = dict(self.mobility)
        if self.disconnects is not None:
            out["disconnects"] = dict(self.disconnects)
        if self.events:
            out["events"] = [dict(event) for event in self.events]
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.monitors:
            out["monitors"] = dict(self.monitors)
        if self.expect:
            out["expect"] = dict(self.expect)
        return out
