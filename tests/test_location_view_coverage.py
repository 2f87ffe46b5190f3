"""The ``LV(G)`` finalize checks, run over the pack's location-view group.

``LocationViewMonitor`` checks coverage (every connected member's cell
is in the coordinator's view) and copy agreement only for the groups
handed to ``watch()``, and the scenario runner watches none.  Here the
``flash_crowd`` group is watched.  At seeds 21 and 56 a member ends
the run in a cell that ``LV(G)`` does not cover: a stale view copy
races the converge, the race that ``OrderedGroup._on_sync_req`` mends
only for the ordered group.  The test pins that, and must start passing
(and lose its ``xfail``) once the location view closes the race.
"""

from __future__ import annotations

import pytest

from repro.monitor import LocationViewMonitor
from repro.scenario.registry import builtin_registry
from repro.scenario.runner import _Run


def lv_violations(name: str, seed: int) -> list:
    """``(invariant, message)`` of each ``lv.*`` violation of one pack
    run with its group watched."""
    run = _Run(builtin_registry().get(name), seed)
    run.wire_workload()
    hub = run.sim.monitor_hub
    hub.monitor(LocationViewMonitor).watch(run.wired.group)
    run.wire_churn()
    run.schedule_events()
    run.execute()
    hub.finalize()
    return [(v.invariant, v.message) for v in hub.violations
            if v.invariant.startswith("lv.")]


@pytest.mark.xfail(
    strict=True,
    reason="flash_crowd ends with a connected member outside LV(G) "
           "(seed 21: mh-2 at mss-2; seed 56: mh-6 at mss-2): a stale "
           "view copy races the converge",
)
@pytest.mark.parametrize("seed", [21, 56])
def test_flash_crowd_keeps_every_member_covered(seed):
    assert lv_violations("flash_crowd", seed) == []


def test_the_watched_harness_is_silent_where_lv_covers():
    """The same harness is silent where the view is right, so the xfail
    above is the race and not the harness."""
    assert lv_violations("flash_crowd", 7) == []
    assert lv_violations("localized_groups_churn", 21) == []
