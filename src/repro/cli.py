"""Command-line interface: run mobile-system scenarios from a shell.

Three subcommands, one per section of the paper::

    python -m repro mutex  --algorithm L2 --n-mss 6 --n-mh 20 \
        --request-rate 0.05 --move-rate 0.02 --duration 500
    python -m repro groups --strategy location_view --group-size 8 \
        --message-rate 0.05 --move-rate 0.01 --duration 1000
    python -m repro proxy  --policy adaptive --move-rate 0.05 \
        --message-rate 0.05 --duration 1000

plus ``multicast`` (the paper's reference [1]), ``compare`` (measured
vs predicted costs), ``trace`` (run a canonical traced scenario and
export it as a Mermaid diagram, JSONL, or Chrome trace JSON),
``monitor``, ``scenarios``, ``scale`` and ``serve`` -- see
``docs/cli.md``.  Simulator speed is not measured from here: the
repository benchmark is ``bench/run.py`` (``docs/performance.md``).

Each prints a summary of what happened plus the cost report in the
paper's currency.  All runs are deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.facade import Simulation

# Only the parser and its constants live at module level: each
# subcommand's handler imports the layers it runs, so ``repro mutex``
# never loads the proxy framework and ``repro --help`` loads nothing.

#: ``--strategy`` choice -> class name in :mod:`repro.groups`.
GROUP_STRATEGIES = {
    "pure_search": "PureSearchGroup",
    "always_inform": "AlwaysInformGroup",
    "location_view": "LocationViewGroup",
}

#: ``--policy`` choice -> class name in :mod:`repro.proxy`.
PROXY_POLICIES = {
    "fixed": "FixedProxyPolicy",
    "local": "LocalProxyPolicy",
    "adaptive": "AdaptiveProxyPolicy",
}

MUTEX_ALGORITHMS = ("L1", "L2", "R1", "R2", "R2'", "R2''")

#: exit status after a closed stdout: 128 + SIGPIPE, what a shell
#: reports for a process the signal killed.
_EXIT_SIGPIPE = 141


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run scenarios from 'Structuring Distributed Algorithms "
            "for Mobile Hosts' (ICDCS 1994)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n-mss", type=int, default=6,
                       help="number of support stations (M)")
        p.add_argument("--n-mh", type=int, default=12,
                       help="number of mobile hosts (N)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--duration", type=float, default=500.0,
                       help="simulated time to run")
        p.add_argument("--move-rate", type=float, default=0.0,
                       help="moves per MH per time unit")
        p.add_argument("--search", default="abstract",
                       choices=["abstract", "broadcast", "home-agent",
                                "caching"])
        p.add_argument("--c-fixed", type=float, default=1.0)
        p.add_argument("--c-wireless", type=float, default=5.0)
        p.add_argument("--c-search", type=float, default=10.0)
        p.add_argument(
            "--fault-plan", default=None, metavar="PATH_OR_JSON",
            help="fault plan to run under: path to a JSON file, or an "
                 "inline JSON object (starts with '{')",
        )
        p.add_argument(
            "--recovery", default=None, metavar="POLICY",
            help="checkpointing policy for crash recovery: 'none', "
                 "'per-message', 'periodic:<interval>', or "
                 "'distance:<cells>' (Khatri-style; see "
                 "docs/system-model.md)",
        )

    mutex = sub.add_parser(
        "mutex", help="distributed mutual exclusion (Section 3)"
    )
    common(mutex)
    mutex.add_argument("--algorithm", default="L2",
                       choices=MUTEX_ALGORITHMS)
    mutex.add_argument("--request-rate", type=float, default=0.05,
                       help="requests per MH per time unit")
    mutex.add_argument("--cs-duration", type=float, default=0.5)

    groups = sub.add_parser(
        "groups", help="group location management (Section 4)"
    )
    common(groups)
    groups.add_argument("--strategy", default="location_view",
                        choices=sorted(GROUP_STRATEGIES))
    groups.add_argument("--group-size", type=int, default=6)
    groups.add_argument("--message-rate", type=float, default=0.05,
                        help="group messages per time unit")

    proxy = sub.add_parser(
        "proxy", help="the proxy framework (Section 5)"
    )
    common(proxy)
    proxy.add_argument("--policy", default="fixed",
                       choices=sorted(PROXY_POLICIES))
    proxy.add_argument("--message-rate", type=float, default=0.05,
                       help="MH-to-MH letters per time unit")

    multicast = sub.add_parser(
        "multicast",
        help="exactly-once multicast (the paper's reference [1])",
    )
    common(multicast)
    multicast.add_argument("--group-size", type=int, default=6)
    multicast.add_argument("--message-rate", type=float, default=0.05)
    multicast.add_argument("--no-gc", action="store_true",
                           help="disable buffer garbage collection")

    compare = sub.add_parser(
        "compare",
        help="reproduce the paper's headline comparisons, "
             "measured vs predicted",
    )
    common(compare)
    compare.add_argument(
        "--experiment", default="all",
        choices=["all", "lamport", "ring", "groups", "recovery"],
        help="which comparison to run (default: all)",
    )

    trace = sub.add_parser(
        "trace",
        help="run a canonical traced scenario and export its trace",
    )
    trace.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario to run (see --list)",
    )
    trace.add_argument(
        "--format", default="summary", dest="fmt",
        choices=["summary", "mermaid", "jsonl", "chrome"],
        help="output format: human summary, Mermaid sequence diagram, "
             "JSON Lines, or Chrome trace_event JSON (Perfetto)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the export to PATH instead of stdout",
    )
    trace.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )

    monitor = sub.add_parser(
        "monitor",
        help="run scenarios under the invariant monitors and report "
             "violations",
    )
    monitor.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario to certify (default: all; see --list)",
    )
    monitor.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )
    monitor.add_argument(
        "--request-deadline", type=float, default=200.0,
        help="liveness watchdog: max sim-time age of an unserved "
             "request (default 200)",
    )
    monitor.add_argument(
        "--token-deadline", type=float, default=120.0,
        help="liveness watchdog: max sim-time without a token arrival "
             "while requests pend (default 120)",
    )
    monitor.add_argument(
        "--health-interval", type=float, default=25.0,
        help="sim-time between health gauge samples (default 25)",
    )
    monitor.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="write the health time-series as JSONL to PATH",
    )
    monitor.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the final health sample as Prometheus text to PATH",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="run the declarative chaos-scenario pack under the "
             "invariant monitors (see docs/scenarios.md)",
    )
    scenarios.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run one scenario (default: all matching --tag)",
    )
    scenarios.add_argument(
        "--tag", default=None, metavar="TAG",
        help="restrict to scenarios carrying TAG (e.g. 'chaos')",
    )
    scenarios.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated seeds to certify across "
             "(default: each scenario's own seed)",
    )
    scenarios.add_argument(
        "--report-dir", default=None, metavar="DIR",
        help="write one structured JSON report per run into DIR",
    )
    scenarios.add_argument(
        "--file", default=None, metavar="PATH",
        help="run a scenario spec from PATH instead of the built-in "
             "pack",
    )
    scenarios.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the pack (names, tags, titles) and exit",
    )

    scale = sub.add_parser(
        "scale",
        help="drive an array-backed population at large N "
             "(see docs/scaling.md)",
    )
    scale.add_argument("--n-mss", type=int, default=16,
                       help="number of support stations (M)")
    scale.add_argument("--n-mh", type=int, default=10_000,
                       help="population size N (array-backed)")
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--duration", type=float, default=200.0,
                       help="simulated time to run")
    scale.add_argument("--tick", type=float, default=10.0,
                       help="sim-time between crowd churn waves")
    scale.add_argument("--move-fraction", type=float, default=0.01,
                       help="fraction of the passive crowd moved per "
                            "tick")
    scale.add_argument("--disconnect-fraction", type=float,
                       default=0.002)
    scale.add_argument("--reconnect-fraction", type=float, default=0.5)
    scale.add_argument("--n-active", type=int, default=8,
                       help="promoted hosts running real L2 mutex "
                            "traffic")
    scale.add_argument("--max-active", type=int, default=None,
                       help="soft cap on promoted hosts "
                            "(default 1024)")

    serve = sub.add_parser(
        "serve",
        help="run a monitored soak workload and serve live telemetry "
             "over HTTP (/metrics, /health, /invariants)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default loopback)")
    serve.add_argument("--port", type=int, default=8077,
                       help="TCP port; 0 picks a free one")
    serve.add_argument("--n-mss", type=int, default=6)
    serve.add_argument("--n-mh", type=int, default=40)
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument("--duration", type=float, default=0.0,
                       help="simulated time to run; 0 means soak "
                            "until interrupted")
    serve.add_argument("--quantum", type=float, default=50.0,
                       help="sim-time advanced per serve-loop step; "
                            "the ledger drains between steps so "
                            "scrapes stay fresh")
    serve.add_argument("--request-rate", type=float, default=0.05,
                       help="mutex requests per MH per time unit")
    serve.add_argument("--move-rate", type=float, default=0.02,
                       help="moves per MH per time unit")
    serve.add_argument("--linger", type=float, default=0.0,
                       help="wall-clock seconds to keep serving after "
                            "a bounded --duration run completes")

    return parser


def _parse_fault_plan(spec: Optional[str]):
    if spec is None:
        return None
    from repro.errors import ConfigurationError
    from repro.faults import FaultPlan

    try:
        if spec.lstrip().startswith("{"):
            return FaultPlan.from_json(spec)
        return FaultPlan.load(spec)
    except (OSError, ValueError, ConfigurationError) as exc:
        raise SystemExit(f"--fault-plan: {exc}") from exc


def _parse_recovery(spec: Optional[str]):
    if spec is None:
        return None
    from repro.errors import ConfigurationError
    from repro.recovery import policy_from_spec

    try:
        return policy_from_spec(spec)
    except ConfigurationError as exc:
        raise SystemExit(f"--recovery: {exc}") from exc


def _rng(seed: int):
    """A seeded generator; ``random`` loads with the first handler that
    draws, not with the parser."""
    import random

    return random.Random(seed)


def _build_sim(args) -> Simulation:
    from repro.facade import Simulation
    from repro.metrics import CostModel

    return Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        cost_model=CostModel(
            c_fixed=args.c_fixed,
            c_wireless=args.c_wireless,
            c_search=args.c_search,
        ),
        search=args.search,
        fault_plan=_parse_fault_plan(getattr(args, "fault_plan", None)),
        recovery=_parse_recovery(getattr(args, "recovery", None)),
    )


def _maybe_mobility(sim: Simulation, args, mh_ids) -> Optional[object]:
    if args.move_rate <= 0:
        return None
    from repro.mobility import UniformMobility

    return UniformMobility(
        sim.network, mh_ids, args.move_rate, rng=_rng(args.seed + 101),
    )


def _print_report(sim: Simulation, emit) -> None:
    report = sim.metrics.report(sim.cost_model)
    emit("")
    emit("message totals : "
         + ", ".join(f"{k}={v}" for k, v in report["totals"].items()))
    emit(f"total cost     : {report['cost_total']:.1f}")
    for scope in sorted(report["cost_by_scope"]):
        emit(f"  {scope:<16}: {report['cost_by_scope'][scope]:.1f}")
    emit(f"MH energy      : {report['energy_total']} wireless ops")
    if sim.recovery is not None:
        restored = [seq for (_, _, seq) in sim.recovery.restored]
        emit(f"checkpointing  : policy={sim.recovery.policy.name} "
             f"taken={sim.recovery.checkpoints_taken} "
             f"restored={len([s for s in restored if s >= 0])} "
             f"restarted={len([s for s in restored if s < 0])}")
    snap = sim.metrics.snapshot()
    if snap.faults or snap.recovery_times:
        from repro.metrics.render import fault_summary

        emit("")
        emit("fault events:")
        for line in fault_summary(snap).splitlines():
            emit(f"  {line}")


def _run_mutex(args, emit) -> int:
    from repro.mutex import (
        CriticalResource,
        L1Mutex,
        L2Mutex,
        R1Mutex,
        R2Mutex,
        R2Variant,
    )
    from repro.workload import MutexWorkload

    sim = _build_sim(args)
    resource = CriticalResource(sim.scheduler)
    note_access = None
    if sim.recovery is not None:
        # Each completed access is one unit of recoverable work: the
        # policy decides when to checkpoint the counter, and a crash /
        # restore cycle shows up in the checkpointing report below.
        from repro.recovery import CounterClient

        access_counter = CounterClient(sim.recovery)
        note_access = access_counter.note_work
    name = args.algorithm
    if name == "L1":
        mutex = L1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=args.cs_duration,
                        on_complete=note_access)
    elif name == "L2":
        mutex = L2Mutex(sim.network, resource,
                        cs_duration=args.cs_duration,
                        on_complete=note_access)
    elif name == "R1":
        mutex = R1Mutex(sim.network, sim.mh_ids, resource,
                        cs_duration=args.cs_duration,
                        on_complete=note_access)
    else:
        variant = {
            "R2": R2Variant.PLAIN,
            "R2'": R2Variant.COUNTER,
            "R2''": R2Variant.TOKEN_LIST,
        }[name]
        mutex = R2Mutex(sim.network, resource, variant=variant,
                        cs_duration=args.cs_duration,
                        on_complete=note_access)
        mutex.start()

    if name in ("L1", "R1"):
        emit(f"note: {name} is a baseline; requests are issued once "
             f"up front (it has no completion-driven workload hook)")
        requesters = sim.mh_ids[: max(1, args.n_mh // 3)]
        for mh_id in requesters:
            if name == "L1":
                mutex.request(mh_id)
            else:
                mutex.want(mh_id)
        if name == "R1":
            mutex.start()
        workload = None
    else:
        workload = MutexWorkload(
            sim.network, mutex, sim.mh_ids, args.request_rate,
            rng=_rng(args.seed + 7),
        )
    mobility = _maybe_mobility(sim, args, sim.mh_ids)

    sim.run(until=args.duration)
    if workload is not None:
        workload.stop()
    if mobility is not None:
        mobility.stop()
    if name in ("R2", "R2'", "R2''"):
        # Let in-flight requests finish, then stop the ring.
        issued = workload.issued if workload else 0
        deadline = sim.now + 20 * args.duration
        while (workload and workload.completed < issued
               and sim.now < deadline):
            sim.run(until=sim.now + 50.0)
        mutex.max_traversals = 0
        sim.run(until=sim.now + 200.0)
    elif name == "R1":
        # Stop the token at its next arrival at the ring head, else it
        # would circulate forever.
        mutex.max_traversals = 0
        sim.run(until=sim.now + 10 * args.duration)
    else:
        sim.drain()

    emit(f"algorithm      : {name}")
    emit(f"region accesses: {resource.access_count}")
    if workload is not None:
        emit(f"requests       : issued={workload.issued} "
             f"completed={workload.completed} "
             f"dropped={workload.dropped}")
    resource.assert_no_overlap()
    emit("safety         : verified (no overlapping accesses)")
    _print_report(sim, emit)
    return 0


def _run_groups(args, emit) -> int:
    import repro.groups as groups
    from repro.workload import GroupMessagingWorkload

    if args.group_size > args.n_mh:
        raise SystemExit("--group-size cannot exceed --n-mh")
    sim = _build_sim(args)
    members = sim.mh_ids[: args.group_size]
    strategy_cls = getattr(groups, GROUP_STRATEGIES[args.strategy])
    strategy = strategy_cls(sim.network, members)
    workload = GroupMessagingWorkload(
        sim.network, strategy, args.message_rate, rng=_rng(args.seed + 7),
    )
    mobility = _maybe_mobility(sim, args, members)
    sim.run(until=args.duration)
    workload.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()

    stats = strategy.stats
    emit(f"strategy       : {args.strategy}")
    emit(f"group          : {len(members)} members")
    emit(f"MSG (messages) : {stats.messages}")
    emit(f"MOB (moves)    : {stats.moves}")
    emit(f"MOB/MSG ratio  : {stats.mobility_to_message_ratio:.2f}")
    if args.strategy == "location_view":
        emit(f"significant f  : {stats.significant_fraction:.2f}")
        emit(f"|LV| now/max   : {strategy.view_size()}"
             f"/{strategy.max_view_size}")
    emit(f"deliveries     : {stats.deliveries} "
         f"(missed in transients: {stats.missed})")
    if stats.messages:
        cost = sim.cost(strategy.scope)
        emit(f"effective cost : {cost / stats.messages:.1f} per message")
    _print_report(sim, emit)
    return 0


def _run_proxy(args, emit) -> int:
    import repro.proxy as proxy
    from repro.sim import PoissonProcess

    sim = _build_sim(args)
    policy = getattr(proxy, PROXY_POLICIES[args.policy])()
    manager = proxy.ProxyManager(sim.network, policy, sim.mh_ids)
    messenger = proxy.ProxiedMessenger(manager)
    rng = _rng(args.seed + 7)
    sent = [0]

    def send_one() -> None:
        src, dst = rng.sample(sim.mh_ids, 2)
        if sim.network.mobile_host(src).is_connected:
            sent[0] += 1
            messenger.send(src, dst, ("letter", sent[0]))

    traffic = PoissonProcess(sim.scheduler, args.message_rate, send_one,
                             rng=_rng(args.seed + 8))
    mobility = _maybe_mobility(sim, args, sim.mh_ids)
    sim.run(until=args.duration)
    traffic.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()

    emit(f"policy         : {args.policy}")
    emit(f"letters        : sent={sent[0]} "
         f"delivered={len(messenger.delivered)} "
         f"missed={len(messenger.missed)}")
    if hasattr(policy, "inform_messages"):
        emit(f"informs        : {policy.inform_messages}")
    if hasattr(policy, "demotions"):
        emit(f"mode switches  : demotions={policy.demotions} "
             f"promotions={policy.promotions}")
    if sent[0]:
        emit(f"effective cost : {sim.cost('proxy') / sent[0]:.1f} "
             f"per letter")
    _print_report(sim, emit)
    return 0


def _run_multicast(args, emit) -> int:
    from repro.multicast import ExactlyOnceMulticast
    from repro.sim import PoissonProcess

    if args.group_size > args.n_mh:
        raise SystemExit("--group-size cannot exceed --n-mh")
    sim = _build_sim(args)
    members = sim.mh_ids[: args.group_size]
    feed = ExactlyOnceMulticast(sim.network, members, gc=not args.no_gc)
    rng = _rng(args.seed + 7)
    sent = [0]

    def send_one() -> None:
        sender = rng.choice(members)
        if sim.network.mobile_host(sender).is_connected:
            sent[0] += 1
            feed.send(sender, ("m", sent[0]))

    traffic = PoissonProcess(sim.scheduler, args.message_rate, send_one,
                             rng=_rng(args.seed + 8))
    mobility = _maybe_mobility(sim, args, members)
    sim.run(until=args.duration)
    traffic.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()

    total = feed.messages_sent
    exact = all(
        feed.delivered_seqs(member) == list(range(1, total + 1))
        for member in members
    )
    emit(f"group          : {len(members)} members")
    emit(f"messages       : {total}")
    emit(f"exactly once   : {exact} (every member, in total order)")
    peak = max(feed.buffer_size(mss_id) for mss_id in sim.mss_ids)
    emit(f"buffered now   : {peak} "
         + ("(GC disabled)" if args.no_gc else "(after GC)"))
    _print_report(sim, emit)
    return 0 if exact else 1


def _run_compare(args, emit) -> int:
    from repro.analysis import comparisons, formulas
    from repro.facade import Simulation
    from repro.metrics import CostModel
    from repro.mutex import (
        CriticalResource,
        L1Mutex,
        L2Mutex,
        R1Mutex,
        R2Mutex,
    )

    model = CostModel(
        c_fixed=args.c_fixed,
        c_wireless=args.c_wireless,
        c_search=args.c_search,
    )
    n = max(args.n_mh, 4)
    m = max(args.n_mss, 4)
    failures = 0

    def row(label: str, measured: float, predicted: float) -> None:
        nonlocal failures
        ok = abs(measured - predicted) < 1e-9
        if not ok:
            failures += 1
        emit(f"  {label:<34}{measured:>10.1f}{predicted:>11.1f}"
             f"   {'OK' if ok else 'MISMATCH'}")

    def fresh(n_mss, n_mh):
        return Simulation(n_mss=n_mss, n_mh=n_mh, seed=args.seed,
                          cost_model=model, search=args.search)

    if args.experiment in ("all", "lamport"):
        emit(f"== Lamport: L1 (N={n} MHs) vs L2 (M={m} MSSs) ==")
        emit(f"  {'quantity':<34}{'measured':>10}{'predicted':>11}")
        sim = fresh(n, n)  # one cell per MH: every message searches
        resource = CriticalResource(sim.scheduler)
        l1 = L1Mutex(sim.network, sim.mh_ids, resource)
        l1.request("mh-0")
        sim.drain()
        row("L1 cost / execution", sim.cost("L1"),
            formulas.l1_execution_cost(n, model))
        row("L1 total MH energy", sim.metrics.energy(),
            formulas.l1_energy_total(n))
        sim = fresh(m, n)
        resource = CriticalResource(sim.scheduler)
        l2 = L2Mutex(sim.network, resource)
        l2.request("mh-0")
        sim.mh(0).move_to(sim.mss_id(1))
        sim.drain()
        row("L2 cost / execution", sim.cost("L2"),
            formulas.l2_execution_cost(m, model))
        factor = comparisons.l1_vs_l2(n, m, model)
        emit(f"  winner: {factor.winner} by {factor.factor:.1f}x")
        emit("")

    if args.experiment in ("all", "ring"):
        emit(f"== Token ring: R1 (N={n}) vs R2 (M={m}), K=2 ==")
        emit(f"  {'quantity':<34}{'measured':>10}{'predicted':>11}")
        sim = fresh(n, n)
        resource = CriticalResource(sim.scheduler)
        r1 = R1Mutex(sim.network, sim.mh_ids, resource,
                     max_traversals=1)
        r1.want("mh-1")
        r1.want("mh-2")
        r1.start()
        sim.drain()
        row("R1 cost / traversal", sim.cost("R1"),
            formulas.r1_traversal_cost(n, model))
        sim = fresh(m, m)
        resource = CriticalResource(sim.scheduler)
        r2 = R2Mutex(sim.network, resource, max_traversals=1)
        before = sim.metrics.snapshot()
        for i in range(2):
            r2.request(f"mh-{i}")
        sim.drain()
        for i in range(2):
            sim.mh(i).move_to(sim.mss_id((i + 2) % m))
        sim.drain()
        r2.start()
        sim.drain()
        row("R2 cost / traversal (K=2)",
            sim.metrics.since(before).cost(model, "R2"),
            formulas.r2_traversal_cost(2, m, model))
        k_star = comparisons.r1_r2_crossover_k(n, m, model)
        emit(f"  crossover: R2 wins while K < {k_star:.1f}")
        emit("")

    if args.experiment in ("all", "groups"):
        g = min(5, n)
        emit(f"== Group strategies, one message, |G|={g} ==")
        emit(f"  {'quantity':<34}{'measured':>10}{'predicted':>11}")
        from repro.groups import (
            AlwaysInformGroup, LocationViewGroup, PureSearchGroup,
        )
        for label, cls, predicted in (
            ("pure search / message", PureSearchGroup,
             formulas.pure_search_message_cost(g, model)),
            ("always inform / message", AlwaysInformGroup,
             formulas.always_inform_message_cost(g, model)),
            ("location view / message", LocationViewGroup,
             formulas.location_view_message_cost(g, g, model)),
        ):
            sim = fresh(g + 2, g)
            group = cls(sim.network, sim.mh_ids)
            before = sim.metrics.snapshot()
            group.send("mh-0", "x")
            sim.drain()
            row(label, sim.metrics.since(before).cost(model, group.scope),
                predicted)
        ratio = comparisons.always_inform_vs_pure_search_ratio(model)
        emit(f"  always-inform beats pure search while "
             f"MOB/MSG < {ratio:.2f}")
        emit("")

    if args.experiment in ("all", "recovery"):
        from repro.recovery.bench import (
            DEFAULT_RUN_LENGTHS, run_length_table,
        )
        short_n, long_n = DEFAULT_RUN_LENGTHS
        emit(f"== Checkpoint policies: overhead vs recovery cost "
             f"({short_n}- vs {long_n}-move runs) ==")
        emit(f"  {'policy':<16}{'moves':>6}{'ckpts':>7}"
             f"{'ckpt cost':>11}{'restore cost':>14}{'work lost':>11}")
        rows = run_length_table(seed=args.seed, cost_model=model)
        for r in rows:
            emit(f"  {r.policy:<16}{r.n_moves:>6}{r.checkpoints:>7}"
                 f"{r.ckpt_cost:>11.1f}{r.restore_cost:>14.1f}"
                 f"{r.work_lost:>11}")
        by_policy = {}
        for r in rows:
            by_policy.setdefault(r.policy, {})[r.n_moves] = r
        dist = by_policy["distance:2"]
        independent = (
            dist[short_n].restore_cost == dist[long_n].restore_cost
        )
        if not independent:
            failures += 1
        emit(f"  distance-bounded restore cost independent of run "
             f"length: {dist[short_n].restore_cost:.1f} "
             f"{'==' if independent else '!='} "
             f"{dist[long_n].restore_cost:.1f}"
             f"   {'OK' if independent else 'MISMATCH'}")
        emit("")

    emit("all comparisons matched the paper's formulas"
         if failures == 0 else f"{failures} MISMATCHES")
    return 0 if failures == 0 else 1


def _run_trace(args, emit) -> int:
    from collections import Counter

    from repro.trace import to_chrome, to_jsonl, to_mermaid
    from repro.trace.scenarios import SCENARIOS, run_scenario

    if args.list_scenarios:
        for name, factory in SCENARIOS.items():
            emit(f"{name:<22} {(factory.__doc__ or '').splitlines()[0]}")
        return 0
    if args.scenario is None:
        raise SystemExit("trace: --scenario is required (see --list)")
    try:
        run = run_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(f"trace: {exc.args[0]}") from exc

    if args.fmt == "mermaid":
        text = to_mermaid(run.events, title=run.title)
    elif args.fmt == "jsonl":
        text = to_jsonl(run.events)
    elif args.fmt == "chrome":
        text = to_chrome(run.events)
    else:
        by_type = Counter(e.etype for e in run.events)
        lines = [
            f"scenario       : {run.name} -- {run.title}",
            f"trace events   : {len(run.events)}",
        ]
        for etype, count in sorted(by_type.items()):
            lines.append(f"  {etype:<20}: {count}")
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in run.notes)
        text = "\n".join(lines)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        emit(f"wrote {len(run.events)} events to {args.out} "
             f"({args.fmt})")
    else:
        for line in text.splitlines():
            emit(line)
    if args.fmt == "summary" and args.out is None:
        _print_report(run.sim, emit)
    return 0


def _run_monitor(args, emit) -> int:
    from repro.monitor import (
        HealthMonitor,
        LivenessMonitor,
        default_monitors,
        replay_events,
    )
    from repro.trace.scenarios import SCENARIOS, run_scenario

    if args.list_scenarios:
        for name, factory in SCENARIOS.items():
            emit(f"{name:<22} {(factory.__doc__ or '').splitlines()[0]}")
        return 0
    names = [args.scenario] if args.scenario else list(SCENARIOS)
    total_violations = 0
    last_health = None
    for name in names:
        try:
            run = run_scenario(name)
        except KeyError as exc:
            raise SystemExit(f"monitor: {exc.args[0]}") from exc
        monitors = default_monitors(
            request_deadline=args.request_deadline,
            token_deadline=args.token_deadline,
            health_interval=args.health_interval,
        )
        hub = replay_events(run.events, monitors,
                            network=run.sim.network)
        n = len(hub.violations)
        total_violations += n
        status = "ok" if n == 0 else f"{n} VIOLATION(S)"
        emit(f"{name:<22} {len(run.events):>5} events  "
             f"{len(hub.monitors)} monitors  {status}")
        for violation in hub.violations:
            emit(f"  {violation.monitor}: {violation.render()}")
        for monitor in hub.monitors:
            if isinstance(monitor, HealthMonitor):
                last_health = monitor
            if isinstance(monitor, LivenessMonitor):
                age = monitor.oldest_pending_age(run.sim.now)
                if age:
                    emit(f"  oldest pending request: {age:g}")
    if args.health_out is not None and last_health is not None:
        with open(args.health_out, "w", encoding="utf-8") as fh:
            fh.write(last_health.to_jsonl())
        emit(f"wrote {len(last_health.samples)} health samples to "
             f"{args.health_out}")
    if args.prom_out is not None and last_health is not None:
        with open(args.prom_out, "w", encoding="utf-8") as fh:
            fh.write(last_health.to_prometheus())
        emit(f"wrote Prometheus gauges to {args.prom_out}")
    if total_violations == 0:
        emit("all invariants held")
        return 0
    emit(f"{total_violations} invariant violation(s)")
    return 1


def _run_scenarios(args, emit) -> int:
    import json
    import os

    from repro.errors import ConfigurationError
    from repro.scenario import (
        builtin_registry,
        load_file,
        render_summary,
        run_scenario,
    )

    try:
        registry = builtin_registry()
    except ConfigurationError as exc:
        raise SystemExit(f"scenarios: {exc}") from exc

    if args.list_scenarios:
        for spec in registry.specs(args.tag):
            tags = ",".join(spec.tags)
            emit(f"{spec.name:<28} [{tags}] {spec.title}")
        return 0

    if args.file is not None:
        try:
            specs = [load_file(args.file)]
        except (OSError, ConfigurationError) as exc:
            raise SystemExit(f"scenarios: {exc}") from exc
    elif args.scenario is not None:
        try:
            specs = [registry.get(args.scenario)]
        except KeyError as exc:
            raise SystemExit(f"scenarios: {exc.args[0]}") from exc
    else:
        specs = registry.specs(args.tag)
        if not specs:
            raise SystemExit(
                f"scenarios: no scenario carries tag {args.tag!r}; "
                f"tags: {', '.join(registry.tags())}"
            )

    seeds = None
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise SystemExit(
                f"scenarios: --seeds must be comma-separated integers, "
                f"got {args.seeds!r}"
            ) from None
        if not seeds:
            raise SystemExit("scenarios: --seeds is empty")

    if args.report_dir is not None:
        os.makedirs(args.report_dir, exist_ok=True)
    results = []
    for spec in specs:
        for seed in (seeds if seeds is not None else [spec.seed]):
            result = run_scenario(spec, seed=seed)
            results.append(result)
            if args.report_dir is not None:
                path = os.path.join(
                    args.report_dir, f"{spec.name}-seed{seed}.json"
                )
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(result.report, fh, indent=2)
                    fh.write("\n")
    for line in render_summary(results):
        emit(line)
    if args.report_dir is not None:
        emit(f"wrote {len(results)} report(s) to {args.report_dir}")
    failed = [r for r in results if not r.ok]
    if failed:
        emit(f"{len(failed)} of {len(results)} run(s) FAILED "
             f"certification")
        return 1
    emit(f"all {len(results)} run(s) certified: every invariant held, "
         f"every expectation met")
    return 0


def _run_scale(args, emit) -> int:
    from repro.facade import Simulation
    from repro.mutex import CriticalResource, L2Mutex
    from repro.scale import CrowdChurn
    from repro.workload import MutexWorkload

    sim = Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        population_store=True,
        max_active=args.max_active,
    )
    churn = CrowdChurn(
        sim.population,
        sim.scheduler,
        tick=args.tick,
        move_fraction=args.move_fraction,
        disconnect_fraction=args.disconnect_fraction,
        reconnect_fraction=args.reconnect_fraction,
        rng=_rng(args.seed + 31),
    )
    churn.start()
    resource = CriticalResource(sim.scheduler)
    workload = None
    if args.n_active > 0:
        mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
        active_ids = [sim.mh_id(i)
                      for i in range(min(args.n_active, args.n_mh))]
        workload = MutexWorkload(sim.network, mutex, active_ids,
                                 request_rate=0.05,
                                 rng=_rng(args.seed + 37))
    sim.run(until=args.duration)
    churn.stop()
    if workload is not None:
        workload.stop()
    sim.drain()
    resource.assert_no_overlap()

    summary = sim.population.summary()
    emit(f"population     : {summary['population']} MHs in "
         f"{args.n_mss} cells")
    emit(f"array state    : {summary['array_bytes'] / 1024:.0f} KiB "
         f"({summary['array_bytes'] / max(1, args.n_mh):.0f} B/MH)")
    emit(f"passive        : {summary['passive_connected']} connected, "
         f"{summary['passive_disconnected']} disconnected")
    emit(f"active set     : {summary['active']} promoted "
         f"(cap {summary['max_active']}; "
         f"{summary['promotions']} promotions, "
         f"{summary['demotions']} demotions)")
    emit(f"churn          : {churn.ticks} waves -- "
         f"{churn.moved} moves, {churn.disconnected} disconnects, "
         f"{churn.reconnected} reconnects "
         f"({summary['batch_ops']} batched ops)")
    mi = summary["move_interval"]
    if mi["count"]:
        emit(f"move interval  : mean {mi['mean']:.1f} "
             f"(stddev {mi['stddev']:.1f}, n={mi['count']})")
    dt = summary["downtime"]
    if dt["count"]:
        emit(f"downtime       : mean {dt['mean']:.1f} "
             f"(stddev {dt['stddev']:.1f}, n={dt['count']})")
    emit(f"events         : {sim.scheduler.events_processed}")
    try:
        import resource as _resource

        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        emit(f"peak RSS       : {peak // 1024} MiB")
    except ImportError:  # pragma: no cover - non-unix
        pass
    _print_report(sim, emit)
    return 0


def _run_serve(args, emit) -> int:
    """Soak a monitored workload while serving live telemetry.

    The event loop advances in ``--quantum`` sim-time steps and drains
    the observability ledger between steps, so ``/metrics`` and
    ``/invariants`` always reflect a recently certified prefix of the
    run (``repro_obs_certified_until``).  Memory stays bounded: the
    hub runs with ``record=False`` so drained rows are dropped after
    replay.
    """
    import time as _time

    from repro.facade import Simulation
    from repro.mutex import CriticalResource, L2Mutex
    from repro.obs import TelemetryServer
    from repro.workload import MutexWorkload

    sim = Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        monitors=True,
    )
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(
        sim.network, mutex, sim.mh_ids,
        request_rate=args.request_rate,
        rng=_rng(args.seed + 1),
    )
    mobility = None
    if args.move_rate > 0:
        from repro.mobility import UniformMobility

        mobility = UniformMobility(sim.network, sim.mh_ids, args.move_rate,
                                   rng=_rng(args.seed + 2))
    server = TelemetryServer(sim, host=args.host, port=args.port)
    server.start()
    emit(f"serving on {server.url}")
    emit("routes: /metrics /health /invariants")
    try:
        while True:
            target = sim.now + args.quantum
            if args.duration > 0:
                target = min(target, args.duration)
            sim.run(until=target)
            if args.duration > 0 and sim.now >= args.duration:
                break
    except KeyboardInterrupt:
        emit("interrupted; shutting down")
    finally:
        workload.stop()
        if mobility is not None:
            mobility.stop()
        sim.drain()
        emit(sim.monitor_report())
        if args.linger > 0:
            emit(f"run complete; serving for {args.linger:.0f}s more")
            _time.sleep(args.linger)
        server.stop()
    return 0


#: subcommand -> handler; every handler takes ``(args, emit)`` and
#: returns the process exit code.
_COMMANDS = {
    "mutex": _run_mutex,
    "groups": _run_groups,
    "proxy": _run_proxy,
    "multicast": _run_multicast,
    "compare": _run_compare,
    "trace": _run_trace,
    "monitor": _run_monitor,
    "scenarios": _run_scenarios,
    "scale": _run_scale,
    "serve": _run_serve,
}


def main(argv: Optional[List[str]] = None, emit=print) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ConfigurationError` from a subcommand is a
    usage error: one ``repro: error: ...`` line on stderr and exit
    status 2, the shape argparse gives its own errors.  A closed
    stdout (``repro ... | head -1``) ends the run quietly with the
    status a SIGPIPE death would have.
    """
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args, emit)
        sys.stdout.flush()
        return status
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os

        # The buffered remainder can never be written; point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_SIGPIPE
