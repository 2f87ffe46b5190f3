"""``repro scale``: drive an array-backed population at large N
(ROADMAP; ``docs/scaling.md``).

Crowd churn over the population store plus a few promoted hosts running
the paper's L2 mutex; reports array memory, promotions and events.
"""

from repro.cli import _print_report, _rng
from repro.facade import Simulation
from repro.mutex import CriticalResource, L2Mutex
from repro.scale import CrowdChurn
from repro.workload import MutexWorkload


def run(args, emit) -> int:
    sim = Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        population_store=True,
        max_active=args.max_active,
    )
    churn = CrowdChurn(
        sim.population,
        sim.scheduler,
        tick=args.tick,
        move_fraction=args.move_fraction,
        disconnect_fraction=args.disconnect_fraction,
        reconnect_fraction=args.reconnect_fraction,
        rng=_rng(args.seed + 31),
    )
    churn.start()
    resource = CriticalResource(sim.scheduler)
    workload = None
    if args.n_active > 0:
        mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
        active_ids = [sim.mh_id(i)
                      for i in range(min(args.n_active, args.n_mh))]
        workload = MutexWorkload(sim.network, mutex, active_ids,
                                 request_rate=0.05,
                                 rng=_rng(args.seed + 37))
    sim.run(until=args.duration)
    churn.stop()
    if workload is not None:
        workload.stop()
    sim.drain()
    resource.assert_no_overlap()

    summary = sim.population.summary()
    emit(f"population     : {summary['population']} MHs in "
         f"{args.n_mss} cells")
    emit(f"array state    : {summary['array_bytes'] / 1024:.0f} KiB "
         f"({summary['array_bytes'] / max(1, args.n_mh):.0f} B/MH)")
    emit(f"passive        : {summary['passive_connected']} connected, "
         f"{summary['passive_disconnected']} disconnected")
    emit(f"active set     : {summary['active']} promoted "
         f"(cap {summary['max_active']}; "
         f"{summary['promotions']} promotions, "
         f"{summary['demotions']} demotions)")
    emit(f"churn          : {churn.ticks} waves -- "
         f"{churn.moved} moves, {churn.disconnected} disconnects, "
         f"{churn.reconnected} reconnects "
         f"({summary['batch_ops']} batched ops)")
    mi = summary["move_interval"]
    if mi["count"]:
        emit(f"move interval  : mean {mi['mean']:.1f} "
             f"(stddev {mi['stddev']:.1f}, n={mi['count']})")
    dt = summary["downtime"]
    if dt["count"]:
        emit(f"downtime       : mean {dt['mean']:.1f} "
             f"(stddev {dt['stddev']:.1f}, n={dt['count']})")
    emit(f"events         : {sim.scheduler.events_processed}")
    try:
        import resource as _resource

        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        emit(f"peak RSS       : {peak // 1024} MiB")
    except ImportError:  # pragma: no cover - non-unix
        pass
    _print_report(sim, emit)
    return 0
