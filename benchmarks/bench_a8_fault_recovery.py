"""A8 -- prices dropping Section 2's reliable-network postulates.

Section 2 of the paper *postulates* a reliable, sequenced fixed network
and always-on support stations, so none of its cost formulas price
failure recovery.  This experiment removes both assumptions with a
fault plan (10% fixed-network loss, plus one mid-run MSS crash) and
measures what recovering the guarantees costs in the paper's own
currency: the reliable channel's acks and retransmissions (C_fixed),
the reconnect traffic of MHs orphaned by the crash (C_wireless +
C_fixed + C_search), and the token-regeneration election (C_fixed).

The qualitative claim: the R2' workload still serves every request with
mutual exclusion intact, and the entire recovery bill shows up as
ordinary priced traffic -- fault tolerance is bought, not free.

The second table prices the checkpoint policies of
``repro compare --experiment recovery`` against an MH crash (Khatri's
distance-bounded checkpointing): under ``distance:2`` the restore bill
of a 5-move and a 25-move run is the same, however much longer the
second one wandered, while eager checkpointing pays per unit of work.
"""

from __future__ import annotations

from repro import (
    CriticalResource,
    FaultPlan,
    LinkFault,
    MssCrash,
    NetworkConfig,
    R2Mutex,
    R2Variant,
    Simulation,
)
from repro.commands.compare import run_length_table
from repro.net import ConstantLatency

from conftest import COSTS, print_table

N_MSS = 4
N_MH = 8

LOSS_PLAN = FaultPlan(link_faults=(LinkFault(drop=0.1),), seed=3)
CRASH_PLAN = FaultPlan(
    link_faults=(LinkFault(drop=0.1),),
    crashes=(MssCrash("mss-2", at=30.0, recover_at=80.0),),
    seed=3,
)


def run_workload(plan, seed=3):
    """The same staggered single-request R2' workload under one plan."""
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    sim = Simulation(
        n_mss=N_MSS,
        n_mh=N_MH,
        seed=seed,
        cost_model=COSTS,
        config=config,
        fault_plan=plan,
    )
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(
        sim.network,
        resource,
        variant=R2Variant.COUNTER,
        max_traversals=200,
        token_timeout=30.0,
    )
    for i in range(N_MH):
        sim.scheduler.schedule(1.0 + 2.0 * i, mutex.request, f"mh-{i}")
    mutex.start()
    sim.drain()
    resource.assert_no_overlap()
    snap = sim.metrics.snapshot()
    recovery = (
        sum(snap.recovery_times) / len(snap.recovery_times)
        if snap.recovery_times
        else 0.0
    )
    return {
        "served": len({mh_id for (_, mh_id) in mutex.completed}),
        "cost": snap.cost(COSTS),
        "algo_cost": snap.cost(COSTS, "R2"),
        "retransmits": snap.fault_total("rel.retransmit"),
        "dropped": snap.fault_total("fixed.dropped"),
        "regenerations": mutex.regenerations,
        "recovery_time": recovery,
    }


def test_a8_recovery_cost(benchmark):
    baseline = run_workload(None)
    lossy = run_workload(LOSS_PLAN)
    crashed = benchmark(run_workload, CRASH_PLAN)

    rows = [
        ("reliable net", baseline["cost"], baseline["retransmits"],
         baseline["regenerations"], baseline["recovery_time"],
         baseline["served"]),
        ("10% loss", lossy["cost"], lossy["retransmits"],
         lossy["regenerations"], lossy["recovery_time"],
         lossy["served"]),
        ("loss + crash", crashed["cost"], crashed["retransmits"],
         crashed["regenerations"], crashed["recovery_time"],
         crashed["served"]),
    ]
    print_table(
        f"A8: R2' recovery bill, M={N_MSS} N={N_MH}",
        ["scenario", "cost", "retx", "regens", "t_recover", "served"],
        rows,
    )

    # Liveness survives every scenario: all requests served.
    for result in (baseline, lossy, crashed):
        assert result["served"] == N_MH
    # The fault-free run pays nothing for recovery machinery...
    assert baseline["retransmits"] == 0
    assert baseline["regenerations"] == 0
    assert baseline["dropped"] == 0
    # ...while lossy runs pay for acks, retransmissions and (with the
    # crash) the orphan-rejoin protocol -- all priced as real traffic.
    for result in (lossy, crashed):
        assert result["dropped"] > 0
        assert result["retransmits"] > 0
        assert result["cost"] > baseline["cost"]
    assert crashed["recovery_time"] > 0


def test_a8_distance_bounded_restore_cost(benchmark):
    rows = benchmark(run_length_table, cost_model=COSTS)
    print_table(
        "A8: checkpoint policies, one MH crash after the last move",
        ["policy", "moves", "ckpts", "ckpt cost", "restore cost",
         "work lost"],
        [(r.policy, r.n_moves, r.checkpoints, r.ckpt_cost,
          r.restore_cost, r.work_lost) for r in rows],
    )
    by = {(r.policy, r.n_moves): r for r in rows}
    # Every policy restored from a checkpoint, not from nothing.
    assert all(r.restored_seq > 0 for r in rows)
    # Eager checkpointing: overhead grows with the run, nothing is lost.
    assert (by[("per-message", 25)].ckpt_cost
            > 3 * by[("per-message", 5)].ckpt_cost)
    assert by[("per-message", 25)].work_lost == 0
    # Distance-bounded: runs congruent modulo the bound pay exactly the
    # same restore bill, for less overhead than eager checkpointing.
    assert (by[("distance:2", 5)].restore_cost
            == by[("distance:2", 25)].restore_cost > 0)
    assert (by[("distance:2", 25)].ckpt_cost
            < by[("per-message", 25)].ckpt_cost)
