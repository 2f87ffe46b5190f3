"""``repro proxy``: the proxy framework (Section 5 of the paper).

Sends MH-to-MH letters through a proxy policy and reports deliveries,
informs, mode switches and the effective cost per letter.
"""

import repro.proxy as proxy
from repro.cli import (
    PROXY_POLICIES,
    _build_sim,
    _maybe_mobility,
    _print_report,
    _rng,
)
from repro.workload import LetterWorkload


def run(args, emit) -> int:
    sim = _build_sim(args)
    policy = getattr(proxy, PROXY_POLICIES[args.policy])()
    manager = proxy.ProxyManager(sim.network, policy, sim.mh_ids)
    messenger = proxy.ProxiedMessenger(manager)
    traffic = LetterWorkload(sim.network, messenger, sim.mh_ids,
                             args.message_rate, _rng(args.seed + 7),
                             _rng(args.seed + 8))
    mobility = _maybe_mobility(sim, args, sim.mh_ids)
    sim.run(until=args.duration)
    traffic.stop()
    if mobility is not None:
        mobility.stop()
    sim.drain()

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
