"""``repro multicast``: exactly-once multicast (the paper's reference [1]).

Multicasts a Poisson stream to a group and checks that every member
delivers every message once, in total order.
"""

from repro.cli import _build_sim, _maybe_mobility, _print_report, _rng
from repro.multicast import ExactlyOnceMulticast
from repro.sim import PoissonProcess


def run(args, emit) -> int:
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
