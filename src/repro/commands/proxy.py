"""``repro proxy``: the proxy framework (Section 5 of the paper).

Sends MH-to-MH letters through a proxy policy and reports deliveries,
informs, mode switches and the effective cost per letter.
"""

from repro.cli import _build_sim, _print_report, _wire
from repro.workload import finish


def run(args, emit) -> int:
    sim = _build_sim(args)
    wired = _wire(sim, args, {
        "kind": "proxy", "policy": args.policy,
        "message_rate": args.message_rate,
    })
    finish(wired, until=args.duration)

    policy = wired.policy
    messenger = wired.messenger
    traffic = wired.driver
    emit(f"policy         : {args.policy}")
    emit(f"letters        : sent={traffic.sent} "
         f"delivered={len(messenger.delivered)} "
         f"missed={len(messenger.missed)}")
    if hasattr(policy, "inform_messages"):
        emit(f"informs        : {policy.inform_messages}")
    if hasattr(policy, "demotions"):
        emit(f"mode switches  : demotions={policy.demotions} "
             f"promotions={policy.promotions}")
    if traffic.sent:
        emit(f"effective cost : {sim.cost('proxy') / traffic.sent:.1f} "
             f"per letter")
    _print_report(sim, emit)
    return 0
