"""Declarative chaos scenarios (spec, loader, registry, runner).

One scenario is one JSON-shaped dict: topology, workload, mobility and
disconnection churn, scheduled mass events (flash crowds, tunnels,
stadium egress, diurnal rate changes), a
:class:`~repro.faults.FaultPlan`, monitor deadlines and
expected-outcome assertions.  The loader validates it, the registry
names it, the runner executes it under the full invariant-monitor
suite, and the report captures what happened as structured JSON.

The shipped pack (``repro/scenario/pack/*.json``) is certified in CI:
every scenario tagged ``chaos`` must finish with zero invariant
violations across at least three seeds.

Quick start::

    from repro.scenario import builtin_registry, run_scenario

    spec = builtin_registry().get("partition_heal_storm")
    result = run_scenario(spec, seed=7)
    assert result.ok, result.failures
Stress-certifies the paper's invariants under churn (ROADMAP chaos-scenario arc).
"""

from repro.scenario.loader import load_file, load_spec
from repro.scenario.registry import (
    ScenarioRegistry,
    builtin_registry,
    pack_dir,
)
from repro.scenario.report import build_report, render_summary
from repro.scenario.runner import (
    ScenarioResult,
    certify,
    parse_seeds,
    run_scenario,
)
from repro.scenario.spec import (
    EVENT_KINDS,
    MOBILITY_KINDS,
    SCHEMA_VERSION,
    WORKLOAD_KINDS,
    ScenarioSpec,
)

__all__ = [
    "EVENT_KINDS",
    "MOBILITY_KINDS",
    "SCHEMA_VERSION",
    "WORKLOAD_KINDS",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioSpec",
    "build_report",
    "builtin_registry",
    "certify",
    "load_file",
    "load_spec",
    "pack_dir",
    "parse_seeds",
    "render_summary",
    "run_scenario",
]
