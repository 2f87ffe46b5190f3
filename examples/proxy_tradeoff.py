#!/usr/bin/env python3
"""Section 5 scenario: fixed vs local proxies for a messaging fleet.

A fleet of couriers exchanges point-to-point messages through proxies
while moving between depots.  With *fixed* proxies every move costs an
inform message but deliveries never search; with *local* proxies moves
are free but every delivery pays a search.  Sweeping the move rate
shows the crossover the paper predicts ("in case of wide area moves and
for MHs that frequently change their cell, [a fixed association] leads
to high message traffic ... we need to look for less static solutions").

Run:  python examples/proxy_tradeoff.py
"""

from __future__ import annotations

import random

from repro import Simulation
from repro.mobility import UniformMobility
from repro.proxy import ProxiedMessenger, ProxyManager
from repro.workload import LetterWorkload, proxy_policy

N_MSS = 10
N_MH = 10
DURATION = 1500.0
MSG_RATE = 0.05  # letters per time unit, fleet-wide


def run(policy_name: str, move_rate: float, seed: int = 3) -> float:
    sim = Simulation(n_mss=N_MSS, n_mh=N_MH, seed=seed)
    policy = proxy_policy(policy_name)()
    manager = ProxyManager(sim.network, policy, sim.mh_ids)
    messenger = ProxiedMessenger(manager)
    traffic = LetterWorkload(sim.network, messenger, sim.mh_ids, MSG_RATE,
                             random.Random(seed + 1),
                             random.Random(seed + 2))
    mobility = UniformMobility(sim.network, sim.mh_ids, move_rate,
                               rng=random.Random(seed + 3))
    sim.run(until=DURATION)
    traffic.stop()
    mobility.stop()
    sim.drain()
    if traffic.sent == 0:
        return float("nan")
    return sim.cost("proxy") / traffic.sent


def main() -> None:
    print(f"fleet of {N_MH} couriers over {N_MSS} depots, "
          f"message rate {MSG_RATE}")
    print()
    print(f"{'move rate/MH':>13} {'fixed':>9} {'local':>9}"
          f" {'adaptive':>9}  winner")
    print("-" * 52)
    for move_rate in (0.001, 0.005, 0.02, 0.08, 0.3):
        fixed = run("fixed", move_rate)
        local = run("local", move_rate)
        adaptive = run("adaptive", move_rate)
        winner = "fixed" if fixed < local else "local"
        print(f"{move_rate:>13} {fixed:>9.1f} {local:>9.1f}"
              f" {adaptive:>9.1f}  {winner}")
    print()
    print("Low mobility favours the fixed proxy (informs are rare and")
    print("deliveries skip the search); high mobility favours the local")
    print("proxy.  The adaptive scope -- the 'less static solution' the")
    print("paper calls for -- switches per host and tracks the better")
    print("static policy at both extremes.")


if __name__ == "__main__":
    main()
