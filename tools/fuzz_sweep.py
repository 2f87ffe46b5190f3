#!/usr/bin/env python3
"""Seed-sweep fuzzing harness for the library's end-to-end invariants.

Runs hundreds of randomized churn scenarios (random latencies, moves,
disconnections, concurrent workloads) and checks the invariants that
must hold under *any* interleaving:

* mutual exclusion safety and completion (L2, R2);
* exactly-once in-order delivery (multicast, ordered group);
* per-(message, recipient) delivery accounting (all group strategies);
* full delivery of proxied letters under every policy.

This harness found three real distributed races during development
(stale-handoff state forking, coordinator snapshot self-overwrite,
stale move-notice wiping a returned member) -- each now has a
deterministic regression test in ``tests/``.  A bounded version runs in
CI as ``tests/test_fuzz_smoke.py``; run this script directly for deep
sweeps:

    python tools/fuzz_sweep.py --seeds 500
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import (
    CriticalResource,
    L2Mutex,
    NetworkConfig,
    R2Mutex,
    Simulation,
    UniformLatency,
)
from repro.groups import (
    AlwaysInformGroup,
    LocationViewGroup,
    OrderedGroup,
    PureSearchGroup,
)
from repro.mobility import DisconnectionModel, UniformMobility
from repro.multicast import ExactlyOnceMulticast
from repro.workload import (
    GroupMessagingWorkload,
    MulticastWorkload,
    MutexWorkload,
)


def _config() -> NetworkConfig:
    return NetworkConfig(
        fixed_latency=UniformLatency(0.2, 2.5),
        wireless_latency=UniformLatency(0.1, 0.8),
    )


def check_multicast(seed: int) -> str | None:
    """Exactly-once, in-order, buffers drained -- under full churn."""
    g = 2 + seed % 6
    sim = Simulation(n_mss=5, n_mh=g, seed=seed, config=_config(),
                     placement="random")
    feed = ExactlyOnceMulticast(sim.network, sim.mh_ids)
    traffic = MulticastWorkload(sim.network, feed, 0.06,
                                random.Random(seed + 1),
                                random.Random(seed + 2))
    mobility = UniformMobility(sim.network, sim.mh_ids,
                               0.03 + 0.05 * (seed % 3),
                               rng=random.Random(seed + 3))
    churn = DisconnectionModel(sim.network, sim.mh_ids, 0.01,
                               downtime=4.0, rng=random.Random(seed + 4))
    sim.run(until=250.0)
    for stoppable in (traffic, mobility, churn):
        stoppable.stop()
    sim.drain(max_events=3_000_000)
    total = feed.messages_sent
    for member in sim.mh_ids:
        if feed.delivered_seqs(member) != list(range(1, total + 1)):
            return f"multicast member={member}"
    if any(feed.buffer_size(m) for m in sim.mss_ids):
        return "multicast buffers not drained"
    return None


def check_ordered_group(seed: int) -> str | None:
    """Total order + exactly-once for the LV-routed ordered group."""
    g = 2 + seed % 5
    sim = Simulation(n_mss=6, n_mh=g, seed=seed, config=_config(),
                     placement="random")
    group = OrderedGroup(sim.network, sim.mh_ids)
    traffic = MulticastWorkload(sim.network, group, 0.06,
                                random.Random(seed + 1),
                                random.Random(seed + 2))
    mobility = UniformMobility(sim.network, sim.mh_ids,
                               0.02 + 0.04 * (seed % 3),
                               rng=random.Random(seed + 3))
    sim.run(until=250.0)
    traffic.stop()
    mobility.stop()
    sim.drain(max_events=3_000_000)
    total = group.messages_sent
    for member in sim.mh_ids:
        if group.delivered_seqs(member) != list(range(1, total + 1)):
            return f"ordered member={member}"
    return None


def check_group_accounting(seed: int) -> str | None:
    """Exactly-once (delivered | missed) accounting per recipient."""
    g = 2 + seed % 6
    strategy_class = [
        PureSearchGroup, AlwaysInformGroup, LocationViewGroup
    ][seed % 3]
    sim = Simulation(n_mss=6, n_mh=g, seed=seed, config=_config(),
                     placement="random")
    group = strategy_class(sim.network, sim.mh_ids)
    workload = GroupMessagingWorkload(sim.network, group, 0.06,
                                      rng=random.Random(seed + 1))
    mobility = UniformMobility(sim.network, sim.mh_ids, 0.05,
                               rng=random.Random(seed + 2))
    churn = DisconnectionModel(sim.network, sim.mh_ids, 0.005,
                               downtime=6.0, rng=random.Random(seed + 3))
    sim.run(until=250.0)
    for stoppable in (workload, mobility, churn):
        stoppable.stop()
    sim.drain(max_events=3_000_000)
    expected = group.stats.expected_recipients
    if group.stats.deliveries + group.stats.missed != expected:
        return f"accounting {strategy_class.__name__}: {group.stats}"
    return None


def check_mutex(seed: int) -> str | None:
    """Safety + completion for L2 and R2 under mobility."""
    sim = Simulation(n_mss=5, n_mh=8, seed=seed, config=_config(),
                     placement="random")
    resource_a = CriticalResource(sim.scheduler)
    l2 = L2Mutex(sim.network, resource_a, cs_duration=0.3, scope="fzl2")
    resource_b = CriticalResource(sim.scheduler)
    r2 = R2Mutex(sim.network, resource_b, cs_duration=0.3, scope="fzr2")
    l2_work = MutexWorkload(sim.network, l2, sim.mh_ids[:4], 0.04,
                            rng=random.Random(seed + 1))
    r2_work = MutexWorkload(sim.network, r2, sim.mh_ids[4:], 0.04,
                            rng=random.Random(seed + 2))
    mobility = UniformMobility(sim.network, sim.mh_ids, 0.03,
                               rng=random.Random(seed + 3))
    r2.start()
    sim.run(until=150.0)
    for stoppable in (l2_work, r2_work, mobility):
        stoppable.stop()
    deadline = sim.now + 3000.0
    while r2_work.completed < r2_work.issued and sim.now < deadline:
        sim.run(until=sim.now + 50.0)
    r2.max_traversals = 0
    sim.run(until=sim.now + 300.0)
    sim.drain(max_events=3_000_000)
    resource_a.assert_no_overlap()
    resource_b.assert_no_overlap()
    if l2_work.completed != l2_work.issued:
        return "L2 incomplete"
    if r2_work.completed != r2_work.issued:
        return "R2 incomplete"
    return None


CHECKS = {
    "multicast": check_multicast,
    "ordered": check_ordered_group,
    "groups": check_group_accounting,
    "mutex": check_mutex,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200,
                        help="seeds per invariant")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--only", choices=sorted(CHECKS),
                        help="run a single invariant")
    args = parser.parse_args(argv)
    checks = (
        {args.only: CHECKS[args.only]} if args.only else CHECKS
    )
    failures = []
    for name, check in checks.items():
        for seed in range(args.start, args.start + args.seeds):
            try:
                bad = check(seed)
            except Exception as exc:  # noqa: BLE001 - report and go on
                bad = f"exception {type(exc).__name__}: {exc}"
            if bad:
                failures.append(f"{name} seed={seed}: {bad}")
                print("FAIL", failures[-1])
    runs = args.seeds * len(checks)
    print(f"{runs} runs, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
