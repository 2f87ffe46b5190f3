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
from repro.sim import PoissonProcess


def run(args, emit) -> int:
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
