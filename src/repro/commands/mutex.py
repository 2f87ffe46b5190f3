"""``repro mutex``: distributed mutual exclusion (Section 3 of the paper).

Runs one of L1, L2, R1 or R2/R2'/R2'' under a request workload and
checks that no two accesses to the critical resource overlap.  Only the
selected algorithm is imported (:mod:`repro.mutex` loads its names on
first access).  The run is wired by :func:`repro.workload.build` and
ended by :func:`repro.workload.finish`, the code a scenario's mutex
workload runs too.
"""

from repro.cli import _build_sim, _print_report, _wire
from repro.mutex import BASELINES
from repro.workload import finish


def run(args, emit) -> int:
    sim = _build_sim(args)
    note_access = None
    if sim.recovery is not None:
        # Each completed access is one unit of recoverable work: the
        # policy decides when to checkpoint the counter, and a crash /
        # restore cycle shows up in the checkpointing report below.
        from repro.recovery import CounterClient

        access_counter = CounterClient(sim.recovery)
        note_access = access_counter.note_work
    name = args.algorithm
    baseline = name in BASELINES
    if baseline:
        emit(f"note: {name} is a baseline; requests are issued once "
             f"up front (it has no completion-driven workload hook)")
    wired = _wire(sim, args, {
        "kind": "mutex", "algorithm": name,
        "request_rate": args.request_rate, "cs_duration": args.cs_duration,
        "on_complete": note_access,
        "requests": range(max(1, args.n_mh // 3)) if baseline else (),
    })
    # R1's token crosses the wireless hops of N MHs on its way to the
    # ring head, so its ring gets longer to stop than R2's.
    finish(wired, until=args.duration, settle=20 * args.duration,
           horizon=10 * args.duration if name == "R1" else 200.0)

    resource = wired.resource
    workload = wired.driver
    emit(f"algorithm      : {name}")
    emit(f"region accesses: {resource.access_count}")
    if workload is not None:
        emit(f"requests       : issued={workload.issued} "
             f"completed={workload.completed} "
             f"aborted={workload.aborted} "
             f"dropped={workload.dropped}")
    resource.assert_no_overlap()
    emit("safety         : verified (no overlapping accesses)")
    _print_report(sim, emit)
    return 0
