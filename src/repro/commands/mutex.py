"""``repro mutex``: distributed mutual exclusion (Section 3 of the paper).

Runs one of L1, L2, R1 or R2/R2'/R2'' under a request workload and
checks that no two accesses to the critical resource overlap.  Only the
selected algorithm is imported (:mod:`repro.mutex` loads its names on
first access).
"""

import repro.mutex as mutexes
from repro.cli import (
    MUTEX_ALGORITHMS,
    _build_sim,
    _maybe_mobility,
    _print_report,
    _rng,
)
from repro.workload import MutexWorkload


def run(args, emit) -> int:
    sim = _build_sim(args)
    resource = mutexes.CriticalResource(sim.scheduler)
    note_access = None
    if sim.recovery is not None:
        # Each completed access is one unit of recoverable work: the
        # policy decides when to checkpoint the counter, and a crash /
        # restore cycle shows up in the checkpointing report below.
        from repro.recovery import CounterClient

        access_counter = CounterClient(sim.recovery)
        note_access = access_counter.note_work
    name = args.algorithm
    algorithm = getattr(mutexes, MUTEX_ALGORITHMS[name])
    options = {"cs_duration": args.cs_duration, "on_complete": note_access}
    if name in ("L1", "R1"):  # the baselines run on the MHs themselves
        mutex = algorithm(sim.network, sim.mh_ids, resource, **options)
    elif name == "L2":
        mutex = algorithm(sim.network, resource, **options)
    else:  # R2Variant's values are the --algorithm choices
        mutex = algorithm(sim.network, resource,
                          variant=mutexes.R2Variant(name), **options)
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
