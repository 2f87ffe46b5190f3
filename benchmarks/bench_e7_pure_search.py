"""E7 -- Section 4.1: the pure search strategy.

Paper claims reproduced:
* one group message costs ``(|G|-1)*(2*C_wireless + C_search)``, and
  MSG messages cost MSG times that, whatever MOB;
* the effective cost is independent of member mobility (MOB);
* no state is maintained anywhere: moves generate zero strategy
  traffic.
"""

from __future__ import annotations

from repro import Category
from repro.analysis import formulas
from repro.groups import PureSearchGroup

from conftest import COSTS, make_sim, print_table


def run_pure_search(g: int, moves_per_member: int):
    sim = make_sim(n_mss=g + 2, n_mh=g)
    group = PureSearchGroup(sim.network, sim.mh_ids)
    # Interleave rotations (every member shifts one cell, keeping all
    # members in distinct cells so every copy genuinely searches) with
    # group messages.
    messages = 4
    offset = 0
    before = sim.metrics.snapshot()
    for round_index in range(messages):
        for _ in range(moves_per_member // messages):
            offset += 1
            for mh_index in range(g):
                target = (mh_index + offset) % sim.n_mss
                sim.mh(mh_index).move_to(f"mss-{target}")
            sim.drain()
        group.send("mh-0", ("msg", round_index))
        sim.drain()
    delta = sim.metrics.since(before)
    return {
        "total": delta.cost(COSTS, group.scope),
        "cost_per_msg": delta.cost(COSTS, group.scope) / messages,
        "searches": delta.total(Category.SEARCH, group.scope),
        "mob": group.stats.moves,
        "msg": group.stats.messages,
        "deliveries": group.stats.deliveries,
    }


def test_e7_pure_search_cost_mobility_independent(benchmark):
    g = 5
    mobilities = (0, 4)
    results = {mob: run_pure_search(g, mob) for mob in mobilities[:-1]}
    results[mobilities[-1]] = benchmark(
        run_pure_search, g, mobilities[-1]
    )

    predicted = formulas.pure_search_message_cost(g, COSTS)
    rows = [
        (
            results[mob]["mob"],
            results[mob]["msg"],
            results[mob]["cost_per_msg"],
            predicted,
        )
        for mob in mobilities
    ]
    print_table(
        f"E7: pure search effective cost per message, |G|={g}",
        ["MOB", "MSG", "measured/msg", "predicted"],
        rows,
    )
    for mob in mobilities:
        r = results[mob]
        assert r["cost_per_msg"] == predicted
        # Every message reached all other members despite the moves.
        assert r["deliveries"] == r["msg"] * (g - 1)
        # One search per non-sender member per message.
        assert r["searches"] == r["msg"] * (g - 1)
    # Mobility independence: identical effective cost at MOB=0 and
    # MOB=high.
    assert results[0]["cost_per_msg"] == results[4]["cost_per_msg"]


def test_e7_pure_search_total_cost():
    g = 5
    for mob in (0, 4, 8):
        r = run_pure_search(g, mob)
        assert r["mob"] == mob * g
        assert r["total"] == formulas.pure_search_total_cost(
            g, r["msg"], COSTS)
