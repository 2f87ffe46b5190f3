"""E1 -- Section 3.1.1: the cost structure of Algorithm L1.

Paper claims reproduced:
* one execution costs ``3*(N-1)*(2*C_wireless + C_search)``;
* energy is proportional to ``6*(N-1)`` overall, ``3*(N-1)`` at the
  initiator, and 3 at every other MH;
* the search overhead is proportional to N.
"""

from __future__ import annotations

from repro import Category, CriticalResource, L1Mutex
from repro.analysis import formulas

from conftest import COSTS, make_sim, print_table


def run_l1(n: int):
    sim = make_sim(n_mss=n, n_mh=n)
    resource = CriticalResource(sim.scheduler)
    mutex = L1Mutex(sim.network, sim.mh_ids, resource)
    mutex.request("mh-0")
    sim.drain()
    snap = sim.metrics.snapshot()
    return {
        "n": n,
        "cost": snap.cost(COSTS, "L1"),
        "searches": snap.total(Category.SEARCH, "L1"),
        "energy": snap.energy(),
        "energy_initiator": snap.energy("mh-0"),
        "energy_others": {snap.energy(f"mh-{i}") for i in range(1, n)},
        "accesses": resource.access_count,
    }


def test_e1_l1_execution_cost(benchmark):
    sizes = (4, 8, 16)
    results = {n: run_l1(n) for n in sizes[:-1]}
    results[sizes[-1]] = benchmark(run_l1, sizes[-1])

    rows = []
    for n in sizes:
        r = results[n]
        predicted = formulas.l1_execution_cost(n, COSTS)
        rows.append((
            n, r["cost"], predicted, r["searches"],
            formulas.l1_search_count(n), r["energy"],
            formulas.l1_energy_total(n),
        ))
    print_table(
        "E1: L1 cost per execution vs N",
        ["N", "measured", "predicted", "searches", "pred.",
         "energy", "pred."],
        rows,
    )
    for n in sizes:
        r = results[n]
        assert r["accesses"] == 1
        assert r["cost"] == formulas.l1_execution_cost(n, COSTS)
        assert r["searches"] == formulas.l1_search_count(n)
        assert r["energy"] == formulas.l1_energy_total(n)
        assert r["energy_initiator"] == formulas.l1_energy_initiator(n)
        assert r["energy_others"] == {formulas.l1_energy_non_initiator()}
    # Search overhead proportional to N: perfectly linear increments.
    assert results[16]["searches"] - results[8]["searches"] == 3 * 8
    assert results[8]["searches"] - results[4]["searches"] == 3 * 4
