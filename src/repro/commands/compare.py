"""``repro compare``: the paper's headline comparisons, measured vs
predicted.

Each experiment runs a small system and prints its measured cost next
to the paper's closed form (:mod:`repro.analysis.formulas`); any
mismatch makes the exit status 1.
"""

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


def run(args, emit) -> int:
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
