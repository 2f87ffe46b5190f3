"""E10 -- Section 4.3 "Comparison of three approaches".

The paper's culminating comparison, as a series over the
mobility-to-message ratio (the closest thing the paper has to a
figure):

* pure search is flat (mobility independent);
* always inform grows linearly with MOB/MSG and beats pure search only
  below the analytic crossover ratio;
* location view tracks only the significant fraction of moves and wins
  for clustered groups in every regime tested;
* static-network messages per group message are proportional to |G|
  for the first two strategies and to |LV| for the location view.
"""

from __future__ import annotations

import random

from repro import Category
from repro.analysis import comparisons
from repro.mobility import LocalizedMobility
from repro.workload import (
    GROUP_STRATEGIES,
    GroupMessagingWorkload,
    group_strategy,
)

from conftest import COSTS, make_sim, print_table

G = 6
N_MSS = 12
MESSAGES_TARGET = 30


def run_strategy(strategy_class, move_rate: float, seed: int = 3):
    sim = make_sim(
        n_mss=N_MSS, n_mh=G, seed=seed,
        placement=[i % 3 for i in range(G)],
    )
    group = strategy_class(sim.network, sim.mh_ids)
    workload = GroupMessagingWorkload(
        sim.network, group, message_rate=0.05, rng=random.Random(seed),
    )
    mobility = None
    if move_rate > 0:
        mobility = LocalizedMobility(
            sim.network, sim.mh_ids, move_rate,
            rng=random.Random(seed + 1),
            home_cells=["mss-0", "mss-1", "mss-2"],
            escape_probability=0.2,
        )
    sim.run(until=MESSAGES_TARGET / 0.05)
    workload.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()
    stats = group.stats
    cost = sim.metrics.cost(COSTS, group.scope)
    fixed = (
        sim.metrics.total(Category.FIXED, group.scope)
        + sim.metrics.total(Category.SEARCH_PROBE, group.scope)
    )
    return {
        "eff": cost / stats.messages,
        "ratio": stats.mobility_to_message_ratio,
        "f": stats.significant_fraction,
        "msg": stats.messages,
        "fixed_per_msg": fixed / stats.messages,
        "searches": sim.metrics.total(Category.SEARCH, group.scope),
    }


def test_e10_three_strategy_series(benchmark):
    move_rates = (0.0, 0.01, 0.05)
    results = {}
    for rate in move_rates:
        for name in GROUP_STRATEGIES:
            cls = group_strategy(name)
            if rate == move_rates[-1] and name == "location_view":
                results[(rate, name)] = benchmark(
                    run_strategy, cls, rate
                )
            else:
                results[(rate, name)] = run_strategy(cls, rate)

    rows = []
    for rate in move_rates:
        row = [f"{rate:g}"]
        ratio = results[(rate, "pure_search")]["ratio"]
        row.append(ratio)
        for name in GROUP_STRATEGIES:
            row.append(results[(rate, name)]["eff"])
        rows.append(tuple(row))
    print_table(
        f"E10: effective cost per group message vs mobility "
        f"(|G|={G}, localized)",
        ["move rate", "MOB/MSG", "pure srch", "always inf", "loc view"],
        rows,
    )

    threshold = comparisons.always_inform_vs_pure_search_ratio(COSTS)
    for rate in move_rates:
        ps = results[(rate, "pure_search")]
        ai = results[(rate, "always_inform")]
        lv = results[(rate, "location_view")]
        # Always-inform vs pure-search winner flips at the analytic
        # crossover ratio.
        if ai["ratio"] < threshold * 0.8:
            assert ai["eff"] < ps["eff"]
        elif ai["ratio"] > threshold * 1.2:
            assert ps["eff"] < ai["eff"]
        # The location view wins for this clustered group throughout.
        assert lv["eff"] < ps["eff"]
        assert lv["eff"] < ai["eff"]
        # Static traffic: |G|-proportional vs |LV|-proportional.
        assert lv["fixed_per_msg"] < ai["fixed_per_msg"]
    # Pure search is flat in mobility (identical per-message cost needs
    # identical cell overlap, so allow small drift).
    flat = [results[(r, "pure_search")]["eff"] for r in move_rates]
    assert max(flat) / min(flat) < 1.35
    # Always-inform grows with mobility.
    growing = [results[(r, "always_inform")]["eff"] for r in move_rates]
    assert growing[0] < growing[-1]
