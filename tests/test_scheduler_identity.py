"""Byte-identity of the object pools.

The event/envelope free lists are a *performance* feature: they may
not change a single simulated step.  These tests pin that contract the
strong way:

* every canonical trace scenario produces the exact same recorded
  event stream (every field of every :class:`TraceEvent`) with pooling
  on and off;
* every scenario in the certified chaos pack produces an identical
  full report (costs, message counts, faults, workload stats, monitor
  verdicts, health snapshot) with pooling off.

If a pool ever leaks state between recycled events, a digest here
moves and the test names the first scenario that diverged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.scenario.runner as runner_mod
import repro.trace.scenarios as trace_scenarios
from repro.facade import Simulation
from repro.scenario import builtin_registry, run_scenario
from repro.trace.scenarios import SCENARIOS

#: constructor overrides exercised against the pooled baseline.
VARIANTS = {
    "unpooled": {"pooling": False},
}


def _patch_simulation(monkeypatch, module, **overrides):
    """Route a module's ``Simulation(...)`` calls through overrides.

    Neither the trace scenarios nor the scenario runner take an
    engine parameter (deliberately: scenario specs describe the
    *system*, not the engine), so identity runs inject the engine
    choice at the constructor seam instead.
    """

    def build(*args, **kwargs):
        kwargs.update(overrides)
        return Simulation(*args, **kwargs)

    monkeypatch.setattr(module, "Simulation", build)


def _event_stream_digest(events):
    """SHA-256 over every field of every recorded trace event."""
    h = hashlib.sha256()
    for ev in events:
        h.update(
            json.dumps(
                [
                    ev.id,
                    ev.parent_id,
                    ev.time,
                    ev.etype,
                    ev.scope,
                    ev.category,
                    ev.src,
                    ev.dst,
                    ev.kind,
                    sorted(ev.detail.items()),
                ],
                sort_keys=True,
                default=repr,
            ).encode()
        )
    return h.hexdigest()


def _canonical_run(monkeypatch, name, overrides):
    if overrides:
        _patch_simulation(monkeypatch, trace_scenarios, **overrides)
    run = trace_scenarios.run_scenario(name)
    return (
        len(run.events),
        run.sim.now,
        _event_stream_digest(run.events),
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS), ids=sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_canonical_scenarios_are_engine_invariant(
    monkeypatch, name, variant
):
    baseline = _canonical_run(monkeypatch, name, {})
    monkeypatch.undo()
    other = _canonical_run(monkeypatch, name, VARIANTS[variant])
    assert other == baseline, (
        f"{name!r} diverged under {variant}: {other} != {baseline}"
    )


# ---------------------------------------------------------------------------
# The certified chaos pack: full-report identity
# ---------------------------------------------------------------------------


def _report_digest(spec, seed):
    report = dict(run_scenario(spec, seed=seed).report)
    report.pop("wall_time_s")  # the only nondeterministic field
    return hashlib.sha256(
        json.dumps(report, sort_keys=True, default=repr).encode()
    ).hexdigest()


def test_chaos_pack_is_pooling_invariant(monkeypatch):
    """Spot the pack at one seed with pooling off: recycled event and
    envelope objects must never leak state into the simulation."""
    registry = builtin_registry()
    names = sorted(registry.names())
    assert len(names) >= 20  # the pack floor; keep the sweep honest
    baseline = {
        name: _report_digest(registry.get(name), 7) for name in names
    }
    _patch_simulation(monkeypatch, runner_mod, pooling=False)
    mismatches = [
        name
        for name in names
        if _report_digest(registry.get(name), 7) != baseline[name]
    ]
    assert mismatches == []
