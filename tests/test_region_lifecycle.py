"""The mobile-host side of a station-granted region, pinned per algorithm.

L2 (and the proxied mutex, which is L2 with a proxy scope) and R2 give a
granted MH the same obligations: enter, leave after ``cs_duration``,
hand the right to enter back to the granting station wherever the host
is by then, owe it while detached, and -- under an MH crash plan --
vacate the region if the host dies inside it.  These tests pin the four
places where the two algorithms' rules are spelled out today, so the
shared lifecycle cannot drift from them:

* L2: a crash inside the region aborts the grant; the next requester is
  served.
* R2: a crash inside the region reissues the token at the live grantor.
* L2: a release owed by a host that then crashes is disclaimed at the
  proxy (an amnesiac host would never send it).
* R2: a return owed across a mid-region move is sent exactly once, even
  when the host reattaches twice.

L1 and R1 run on the MHs themselves and hand nothing back, but a host
that dies inside the region is vacated the same way by all four: one
aborted ``cs.exit`` at the crash, carrying the algorithm's own mark.
"""

from __future__ import annotations

import pytest

from repro import (
    CriticalResource, L1Mutex, L2Mutex, R1Mutex, R2Mutex, Simulation,
)
from repro.faults import FaultPlan, MhCrash
from repro.net import ConstantLatency, NetworkConfig


def _sim(plan=None, trace=False, **config):
    return Simulation(
        n_mss=3, n_mh=3, seed=1, trace=trace, fault_plan=plan,
        config=NetworkConfig(fixed_latency=ConstantLatency(1.0),
                             wireless_latency=ConstantLatency(0.5),
                             **config),
    )


def _run_until_holder(sim, resource, mh_id):
    while resource.holder != mh_id:
        assert sim.scheduler.step(), f"{mh_id} never entered the region"


def _served(mutex):
    return [mh for (_, mh) in mutex.completed]


def test_l2_crash_inside_the_region_aborts_the_grant():
    sim = _sim(FaultPlan(mh_crashes=(MhCrash("mh-0", at=6.0),), seed=1))
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=30.0)
    mutex.request("mh-0")
    mutex.request("mh-1")
    sim.drain()
    assert sim.metrics.fault_total("l2.grant_aborted_by_crash") == 1
    assert resource.holders_in_order() == ["mh-0", "mh-1"]
    # The ghost's occupancy ended at the crash, not 30 units later.
    assert resource.accesses[0].exit_time == 6.0
    assert [mh for (_, mh) in mutex.aborted] == ["mh-0"]
    assert _served(mutex) == ["mh-1"]
    resource.assert_no_overlap()


def test_r2_crash_inside_the_region_reissues_the_token_at_the_grantor():
    sim = _sim(FaultPlan(mh_crashes=(MhCrash("mh-0", at=6.0),), seed=1))
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, cs_duration=30.0,
                    max_traversals=3)
    mutex.request("mh-0")
    sim.run(until=1.0)  # queued at mss-0 before the token starts there
    mutex.request("mh-2")
    mutex.start()
    sim.drain()
    assert sim.metrics.fault_total("r2.grant_aborted_by_crash") == 1
    assert sim.metrics.fault_total("r2.token_reissued") == 1
    # Handed straight on at the grantor: no watchdog regeneration.
    assert sim.metrics.fault_total("r2.token_regenerated") == 0
    assert resource.holders_in_order() == ["mh-0", "mh-2"]
    assert resource.accesses[0].exit_time == 6.0
    # Two fixed hops after the reissue, not a watchdog timeout later.
    assert resource.accesses[1].enter_time == 8.5
    assert _served(mutex) == ["mh-2"]
    resource.assert_no_overlap()


def test_l2_release_owed_by_a_crashed_host_is_disclaimed():
    sim = _sim(FaultPlan(mh_crashes=(MhCrash("mh-0", at=20.0),), seed=1))
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=5.0)
    mutex.request("mh-0")
    mutex.request("mh-1")
    _run_until_holder(sim, resource, "mh-0")
    sim.mh(0).disconnect()  # leaves the region detached: owes the release
    sim.run(until=19.0)
    assert resource.holder is None and _served(mutex) == []
    sim.drain()
    assert sim.metrics.fault_total("l2.owed_release_disclaimed") == 1
    assert sim.metrics.fault_total("l2.grant_aborted_by_crash") == 0
    # The proxy released on the dead host's behalf, at the crash.
    assert mutex.completed[0] == (20.0, "mh-0")
    assert _served(mutex) == ["mh-0", "mh-1"]
    resource.assert_no_overlap()


def test_r2_return_owed_across_a_move_is_sent_exactly_once():
    sim = _sim(trace=True, transit_time=10.0)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, cs_duration=5.0,
                    max_traversals=4)
    mutex.request("mh-0")
    mutex.start()
    _run_until_holder(sim, resource, "mh-0")
    mh = sim.mh(0)
    grantor = mh.current_mss_id
    mh.move_to("mss-2")  # the exit lands mid-transit: the return is owed
    sim.run(until=sim.scheduler.now + 6.0)
    assert resource.holder is None and _served(mutex) == []
    sim.run(until=sim.scheduler.now + 6.0)  # first reattachment
    assert mh.current_mss_id == "mss-2"
    mh.move_to("mss-1")
    sim.drain()  # second reattachment
    assert mh.moves_completed == 2
    returns = [e for e in sim.tracer.by_type("send.wireless_up")
               if e.kind == "R2.return"]
    assert [(e.src, e.dst) for e in returns] == [("mh-0", "mss-2")]
    forwards = [e for e in sim.tracer.by_type("send.fixed")
                if e.kind == "R2.return_fwd"]
    assert [(e.src, e.dst) for e in forwards] == [("mss-2", grantor)]
    assert _served(mutex) == ["mh-0"]
    resource.assert_no_overlap()


def _hold_l1(sim, resource):
    L1Mutex(sim.network, sim.mh_ids, resource, cs_duration=30.0).request(
        "mh-0")


def _hold_r1(sim, resource):
    mutex = R1Mutex(sim.network, sim.mh_ids, resource, cs_duration=30.0,
                    max_traversals=3, auto_repair=True)
    mutex.want("mh-0")
    mutex.start()


def _hold_l2(sim, resource):
    L2Mutex(sim.network, resource, cs_duration=30.0).request("mh-0")


def _hold_r2(sim, resource):
    mutex = R2Mutex(sim.network, resource, cs_duration=30.0,
                    max_traversals=3)
    mutex.request("mh-0")
    sim.run(until=1.0)  # queued at mss-0 before the token starts there
    mutex.start()


#: scope -> (how mh-0 comes to hold the region, the mark's detail key).
_HOLDERS = {
    "L1": (_hold_l1, None),
    "R1": (_hold_r1, None),
    "L2": (_hold_l2, "proxy"),
    "R2": (_hold_r2, "token_val"),
}


@pytest.mark.parametrize("scope", sorted(_HOLDERS))
def test_a_crash_inside_the_region_is_one_aborted_exit(scope):
    hold, mark = _HOLDERS[scope]
    sim = _sim(FaultPlan(mh_crashes=(MhCrash("mh-0", at=6.0),), seed=1),
               trace=True)
    resource = CriticalResource(sim.scheduler)
    hold(sim, resource)
    sim.drain()
    aborted = [e for e in sim.tracer.by_type("cs.exit")
               if e.detail.get("aborted")]
    assert [(e.time, e.scope, e.src) for e in aborted] == [
        (6.0, scope, "mh-0")]
    detail = dict(aborted[0].detail)
    assert detail.pop("aborted") is True
    assert detail.pop("reason") == "mh.crash"
    assert list(detail) == ([] if mark is None else [mark])
    fault = f"{scope.lower()}.grant_aborted_by_crash"
    assert sim.metrics.fault_total(fault) == 1
    assert resource.accesses[0].holder == "mh-0"
    assert resource.accesses[0].exit_time == 6.0
