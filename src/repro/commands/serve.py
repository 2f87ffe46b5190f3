"""``repro serve``: a monitored soak of the paper's L2 mutex with live
telemetry over HTTP (``/metrics``, ``/health``, ``/invariants``).
"""

import time

from repro.cli import _rng
from repro.facade import Simulation
from repro.mutex import CriticalResource, L2Mutex
from repro.obs import TelemetryServer
from repro.workload import MutexWorkload


def run(args, emit) -> int:
    """Soak a monitored workload while serving live telemetry.

    The event loop advances in ``--quantum`` sim-time steps and drains
    the observability ledger between steps, so ``/metrics`` and
    ``/invariants`` always reflect a recently certified prefix of the
    run (``repro_obs_certified_until``).  Memory stays bounded: no
    trace is kept, so drained rows are dropped after replay.
    """
    sim = Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        monitors=True,
    )
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(
        sim.network, mutex, sim.mh_ids,
        request_rate=args.request_rate,
        rng=_rng(args.seed + 1),
    )
    mobility = None
    if args.move_rate > 0:
        from repro.mobility import UniformMobility

        mobility = UniformMobility(sim.network, sim.mh_ids, args.move_rate,
                                   rng=_rng(args.seed + 2))
    server = TelemetryServer(sim, host=args.host, port=args.port)
    server.start()
    emit(f"serving on {server.url}")
    emit("routes: /metrics /health /invariants")
    try:
        while True:
            target = sim.now + args.quantum
            if args.duration > 0:
                target = min(target, args.duration)
            sim.run(until=target)
            if args.duration > 0 and sim.now >= args.duration:
                break
    except KeyboardInterrupt:
        emit("interrupted; shutting down")
    finally:
        workload.stop()
        if mobility is not None:
            mobility.stop()
        sim.drain()
        emit(sim.monitor_report())
        if args.linger > 0:
            emit(f"run complete; serving for {args.linger:.0f}s more")
            time.sleep(args.linger)
        server.stop()
    return 0
