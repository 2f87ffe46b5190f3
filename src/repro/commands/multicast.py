"""``repro multicast``: exactly-once multicast (the paper's reference [1]).

Multicasts a Poisson stream to a group and checks that every member
delivers every message once, in total order.
"""

from repro.cli import _build_sim, _print_report, _wire
from repro.workload import finish


def run(args, emit) -> int:
    if args.group_size > args.n_mh:
        raise SystemExit("--group-size cannot exceed --n-mh")
    sim = _build_sim(args)
    wired = _wire(sim, args, {
        "kind": "multicast", "group_size": args.group_size,
        "message_rate": args.message_rate, "gc": not args.no_gc,
    })
    finish(wired, until=args.duration)

    feed = wired.feed
    members = wired.participants
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
