"""``repro groups``: group location management (Section 4 of the paper).

Drives one location strategy with a group-messaging workload and
reports MSG, MOB, deliveries and the effective cost per message.
"""

from repro.cli import _build_sim, _print_report, _wire
from repro.workload import finish


def run(args, emit) -> int:
    if args.group_size > args.n_mh:
        raise SystemExit("--group-size cannot exceed --n-mh")
    sim = _build_sim(args)
    wired = _wire(sim, args, {
        "kind": "groups", "strategy": args.strategy,
        "group_size": args.group_size, "message_rate": args.message_rate,
    })
    finish(wired, until=args.duration)

    strategy = wired.group
    stats = strategy.stats
    emit(f"strategy       : {args.strategy}")
    emit(f"group          : {len(wired.participants)} members")
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
