"""Measured recovery-cost benchmark: the policy trade-off in the
paper's currency.

One run per (policy, run length): a single mobile host performs one
unit of recoverable work in every cell it visits, hops to the next cell
every 6 time units (spaced so the migrating meta always catches up
while the host is connected), crashes after the last hop and recovers
ten units later.  Two scopes split the bill the way the trade-off is
argued:

* ``recovery.ckpt``    -- the overhead the policy pays while healthy
  (one wireless uplink per checkpoint, plus discard housekeeping);
* ``recovery.restore`` -- the cost paid after the crash (one fixed hop
  per trail entry walked, the payload's return, the restore downlink).

The headline claim (Khatri): under ``distance:<d>`` the restore bill
depends only on the distance moved since the last checkpoint -- so two
runs whose lengths are congruent modulo *d* pay *exactly* the same
restore cost, no matter how much longer one wandered.  ``per-message``
buys a near-free restore but pays overhead per unit of work;
``periodic`` sits in between and loses whatever a window left
unprotected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.metrics import CostModel

#: the default head-to-head: eager, timed, and distance-bounded.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "per-message", "periodic:12.0", "distance:2",
)
#: short vs long runs, congruent modulo the distance bound above so the
#: independence claim is an exact equality.
DEFAULT_RUN_LENGTHS: Tuple[int, ...] = (5, 25)


@dataclass(frozen=True)
class PolicyRunCost:
    """The measured bill for one (policy, run length) pair."""

    policy: str
    n_moves: int
    checkpoints: int
    ckpt_cost: float
    restore_cost: float
    #: units of recoverable work the crash destroyed for good.
    work_lost: int
    #: sequence number reinstated by the restore (-1 = from nothing).
    restored_seq: int


def measure_policy(
    policy: str,
    n_moves: int,
    seed: int = 1,
    n_mss: int = 4,
    cost_model: Optional[CostModel] = None,
) -> PolicyRunCost:
    """Run the benchmark workload under ``policy`` and price both sides.

    Deterministic for a given (policy, n_moves, seed): the crash is the
    only fault and lands after the last meta arrival has settled.
    """
    # Imported here: the facade imports this package, so a module-level
    # import would cycle during ``import repro``.
    from repro.facade import Simulation
    from repro.faults import FaultPlan, MhCrash
    from repro.net import ConstantLatency, NetworkConfig
    from repro.recovery.clients import CounterClient

    plan = FaultPlan(
        mh_crashes=(
            MhCrash("mh-0", at=10.0 + 6.0 * n_moves,
                    recover_at=20.0 + 6.0 * n_moves),
        ),
        seed=seed,
    )
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    sim = Simulation(
        n_mss=n_mss, n_mh=1, seed=seed, config=config,
        fault_plan=plan, recovery=policy, cost_model=cost_model,
    )
    counter = CounterClient(sim.recovery)
    sim.scheduler.post_at(1.0, counter.note_work, "mh-0")
    for i in range(n_moves):
        # One unit of work in the current cell, then hop to the next.
        sim.scheduler.post_at(2.9 + 6.0 * i, counter.note_work, "mh-0")
        sim.scheduler.post_at(
            3.0 + 6.0 * i, sim.mh(0).move_to, f"mss-{(i + 1) % n_mss}"
        )
    sim.drain()
    assert len(sim.recovery.restored) == 1
    return PolicyRunCost(
        policy=policy,
        n_moves=n_moves,
        checkpoints=sim.recovery.checkpoints_taken,
        ckpt_cost=sim.cost("recovery.ckpt"),
        restore_cost=sim.cost("recovery.restore"),
        work_lost=counter.lost["mh-0"],
        restored_seq=sim.recovery.restored[0][2],
    )


def run_length_table(
    policies: Sequence[str] = DEFAULT_POLICIES,
    run_lengths: Sequence[int] = DEFAULT_RUN_LENGTHS,
    seed: int = 1,
    cost_model: Optional[CostModel] = None,
) -> List[PolicyRunCost]:
    """The full policy x run-length sweep, row-major by policy."""
    return [
        measure_policy(policy, n, seed=seed, cost_model=cost_model)
        for policy in policies
        for n in run_lengths
    ]
