"""``repro groups``: group location management (Section 4 of the paper).

Drives one location strategy with a group-messaging workload and
reports MSG, MOB, deliveries and the effective cost per message.
"""

import repro.groups as groups
from repro.cli import (
    GROUP_STRATEGIES,
    _build_sim,
    _maybe_mobility,
    _print_report,
    _rng,
)
from repro.workload import GroupMessagingWorkload


def run(args, emit) -> int:
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
