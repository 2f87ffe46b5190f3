"""E9 -- Section 4.3: the location-view strategy.

Paper claims reproduced:
* a group message costs ``(|LV|-1)*C_fixed + |G|*C_wireless`` -- the
  static-network traffic is proportional to |LV|, not |G|;
* an LV update after a significant move costs at most
  ``(|LV|+3)*C_fixed``;
* the total cost over a run respects the paper's closed-form bound,
  and the effective per-message cost depends only on the *significant*
  fraction of the mobility-to-message ratio: insignificant moves
  (within the view) barely cost anything.
"""

from __future__ import annotations

from repro import Category
from repro.analysis import formulas
from repro.groups import LocationViewGroup

from conftest import COSTS, make_sim, print_table


def run_clustered_message(g: int, clusters: int):
    """All members packed into ``clusters`` cells; send one message."""
    sim = make_sim(
        n_mss=clusters + 4, n_mh=g,
        placement=[i % clusters for i in range(g)],
    )
    group = LocationViewGroup(sim.network, sim.mh_ids)
    before = sim.metrics.snapshot()
    group.send("mh-0", "x")
    sim.drain()
    delta = sim.metrics.since(before)
    return {
        "lv": group.view_size(),
        "cost": delta.cost(COSTS, group.scope),
        "fixed": delta.total(Category.FIXED, group.scope),
        "wireless": delta.total(Category.WIRELESS, group.scope),
        "delivered": group.stats.deliveries,
    }


def run_mobility_regime(g: int, significant: bool, moves: int,
                        messages: int):
    """Members in 3 home cells; moves either stay inside the view
    (insignificant) or bounce to fresh cells (significant)."""
    sim = make_sim(
        n_mss=3 + moves + 2, n_mh=g,
        placement=[i % 3 for i in range(g)],
    )
    group = LocationViewGroup(sim.network, sim.mh_ids)
    fresh_cell = 3
    before = sim.metrics.snapshot()
    done = 0
    updates = []
    for round_index in range(messages):
        for _ in range(moves // messages):
            mover = done % g
            mh = sim.mh(mover)
            if significant:
                target = f"mss-{fresh_cell}"
                fresh_cell += 1
            else:
                current = int(mh.current_mss_id.split("-")[1])
                target = f"mss-{(current + 1) % 3}"
            lv = group.view_size()
            moved = sim.metrics.snapshot()
            mh.move_to(target)
            sim.drain()
            updates.append((sim.metrics.since(moved).cost(COSTS, group.scope),
                            lv))
            done += 1
        group.send(sim.mh_id(g - 1), ("msg", round_index))
        sim.drain()
    delta = sim.metrics.since(before)
    return {
        "cost": delta.cost(COSTS, group.scope),
        "mob": group.stats.moves,
        "msg": group.stats.messages,
        "f": group.stats.significant_fraction,
        "lv_max": group.max_view_size,
        "missed": group.stats.missed,
        #: (cost, |LV| before the move) of each move's view update.
        "updates": updates,
    }


def test_e9_message_cost_proportional_to_view(benchmark):
    g = 6
    cluster_counts = (1, 2, 6)
    results = {c: run_clustered_message(g, c) for c in cluster_counts[:-1]}
    results[cluster_counts[-1]] = benchmark(
        run_clustered_message, g, cluster_counts[-1]
    )
    rows = []
    for c in cluster_counts:
        r = results[c]
        predicted = formulas.location_view_message_cost(r["lv"], g, COSTS)
        rows.append((r["lv"], r["cost"], predicted, r["fixed"],
                     r["wireless"]))
    print_table(
        f"E9: LV group-message cost vs |LV|, |G|={g}",
        ["|LV|", "measured", "predicted", "fixed msgs", "wireless"],
        rows,
    )
    for c in cluster_counts:
        r = results[c]
        assert r["lv"] == c
        assert r["cost"] == formulas.location_view_message_cost(
            c, g, COSTS
        )
        # Static traffic proportional to |LV|-1, NOT to |G|-1.
        assert r["fixed"] == c - 1
        assert r["wireless"] == g
        assert r["delivered"] == g - 1


def test_e9_total_cost_within_paper_bound(benchmark):
    g, moves, messages = 6, 8, 4
    result = benchmark(run_mobility_regime, g, True, moves, messages)
    bound = formulas.location_view_total_cost_bound(
        result["lv_max"], g, result["f"], result["mob"],
        result["msg"], COSTS,
    )
    print_table(
        "E9b: LV total cost vs closed-form bound (significant moves)",
        ["MOB", "MSG", "f", "|LV|max", "measured", "bound"],
        [(result["mob"], result["msg"], result["f"],
          result["lv_max"], result["cost"], bound)],
    )
    assert result["f"] == 1.0
    assert result["cost"] <= bound
    # Each significant move's LV update costs at most (|LV|+3)*C_fixed,
    # |LV| counting the cell the move adds.
    for cost, lv in result["updates"]:
        assert cost <= formulas.location_view_update_cost_bound(lv + 1,
                                                                COSTS)


def test_e9_only_significant_fraction_matters(benchmark):
    g, moves, messages = 6, 8, 4
    insig = run_mobility_regime(g, False, moves, messages)
    sig = benchmark(run_mobility_regime, g, True, moves, messages)
    rows = [
        ("insignificant", insig["mob"], insig["f"],
         insig["cost"] / insig["msg"]),
        ("significant", sig["mob"], sig["f"],
         sig["cost"] / sig["msg"]),
    ]
    print_table(
        "E9c: effective cost/message, same MOB/MSG, different f",
        ["regime", "MOB", "f", "measured/msg"],
        rows,
    )
    assert insig["f"] == 0.0
    assert sig["f"] == 1.0
    # Same mobility volume, but only the significant regime pays for
    # view maintenance.
    assert insig["cost"] < sig["cost"]
    # Insignificant moves cost exactly one move-notice each beyond the
    # pure messaging cost.
    base = messages * formulas.location_view_message_cost(3, g, COSTS)
    assert insig["cost"] == base + moves * COSTS.c_fixed
