"""E11 -- Section 5: the proxy framework's search/inform trade-off.

Paper claims reproduced:
* a fixed proxy association totally separates mobility from the
  algorithm: deliveries never search, but the proxy must be informed of
  every move ("high message traffic ... may be infeasible" for
  frequent movers);
* the local-proxy association (as in L2/R2) pays nothing on moves but a
  search per delivery;
* sweeping the move-to-message ratio crosses the two curves.
"""

from __future__ import annotations

import random

from repro import Category
from repro.mobility import UniformMobility
from repro.proxy import (
    FixedProxyPolicy,
    LocalProxyPolicy,
    ProxiedMessenger,
    ProxyManager,
)
from repro.workload import LetterWorkload

from conftest import COSTS, make_sim, print_table

N_MSS = 10
N_MH = 10
MSG_RATE = 0.05
DURATION = 1200.0


def run_policy(policy_name: str, move_rate: float, seed: int = 3):
    sim = make_sim(n_mss=N_MSS, n_mh=N_MH, seed=seed)
    policy = (
        FixedProxyPolicy() if policy_name == "fixed"
        else LocalProxyPolicy()
    )
    manager = ProxyManager(sim.network, policy, sim.mh_ids)
    messenger = ProxiedMessenger(manager)
    traffic = LetterWorkload(sim.network, messenger, sim.mh_ids, MSG_RATE,
                             random.Random(seed + 1),
                             random.Random(seed + 2))
    mobility = None
    if move_rate > 0:
        mobility = UniformMobility(sim.network, sim.mh_ids, move_rate,
                                   rng=random.Random(seed + 3))
    sim.run(until=DURATION)
    traffic.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()
    moves = sum(sim.mh(i).moves_completed for i in range(N_MH))
    return {
        "eff": sim.metrics.cost(COSTS, "proxy") / max(traffic.sent, 1),
        "sent": traffic.sent,
        "delivered": len(messenger.delivered),
        "moves": moves,
        "searches": sim.metrics.total(Category.SEARCH, "proxy"),
        "informs": (
            policy.inform_messages
            if isinstance(policy, FixedProxyPolicy) else 0
        ),
    }


def test_e11_proxy_tradeoff(benchmark):
    move_rates = (0.002, 0.02, 0.2)
    results = {}
    for rate in move_rates:
        results[(rate, "fixed")] = run_policy("fixed", rate)
        if rate == move_rates[-1]:
            results[(rate, "local")] = benchmark(
                run_policy, "local", rate
            )
        else:
            results[(rate, "local")] = run_policy("local", rate)

    rows = []
    for rate in move_rates:
        fixed = results[(rate, "fixed")]
        local = results[(rate, "local")]
        rows.append((
            f"{rate:g}", fixed["moves"], fixed["eff"], local["eff"],
            "fixed" if fixed["eff"] < local["eff"] else "local",
        ))
    print_table(
        "E11: cost per letter, fixed vs local proxies",
        ["move rate", "moves", "fixed", "local", "winner"],
        rows,
    )
    for rate in move_rates:
        fixed = results[(rate, "fixed")]
        local = results[(rate, "local")]
        # Every letter was delivered under both policies.
        assert fixed["delivered"] == fixed["sent"]
        assert local["delivered"] == local["sent"]
        # Fixed proxies never search; inform traffic tracks moves.
        assert fixed["searches"] == 0
        assert fixed["informs"] > 0
        # Local proxies never inform; deliveries pay the searches.
        assert local["informs"] == 0
        assert local["searches"] > 0
    # The crossover: fixed wins at low mobility, local at high.
    low, high = move_rates[0], move_rates[-1]
    assert results[(low, "fixed")]["eff"] < \
        results[(low, "local")]["eff"]
    assert results[(high, "local")]["eff"] < \
        results[(high, "fixed")]["eff"]
