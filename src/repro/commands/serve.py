"""``repro serve``: a monitored soak of the paper's L2 mutex with live
telemetry over HTTP (``/metrics``, ``/health``, ``/invariants``).
"""

import time

from repro.cli import _wire
from repro.errors import ConfigurationError
from repro.facade import Simulation
from repro.obs import TelemetryServer


def run(args, emit) -> int:
    """Soak a monitored workload while serving live telemetry.

    The event loop advances in ``--quantum`` sim-time steps and drains
    the observability ledger between steps, so ``/metrics`` and
    ``/invariants`` always reflect a recently certified prefix of the
    run (``repro_obs_certified_until``).  Memory stays bounded: no
    trace is kept, so drained rows are dropped after replay.  The L2
    workload and its ``--move-rate`` mobility are wired by
    :func:`repro.workload.build`, as ``repro mutex`` wires them.  The
    listener is bound first, so an address in use fails before any
    simulation is built.
    """
    server = _bind(args.host, args.port)
    try:
        sim = Simulation(
            n_mss=args.n_mss,
            n_mh=args.n_mh,
            seed=args.seed,
            monitors=True,
        )
        wired = _wire(sim, args, {"kind": "mutex", "algorithm": "L2",
                                  "cs_duration": 0.3,
                                  "request_rate": args.request_rate})
        server.sim = sim
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
            for driver in wired.drivers:
                driver.stop()
            sim.drain()
            emit(sim.monitor_report())
            if args.linger > 0:
                emit(f"run complete; serving for {args.linger:.0f}s more")
                time.sleep(args.linger)
    finally:
        server.stop()
    return 0


def _bind(host: str, port: int) -> TelemetryServer:
    """The telemetry listener, bound before any simulation is built;
    an address that cannot be bound is a usage error."""
    try:
        return TelemetryServer(None, host=host, port=port)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot serve on {host}:{port}: {exc.strerror or exc}"
        ) from None
