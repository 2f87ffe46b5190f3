"""``repro monitor``: certify the walkthrough scenarios under the
invariant monitors.

Runs each walkthrough scenario of the paper (or any builtin scenario
named with ``--scenario``) through :func:`repro.scenario.run_scenario`
at the command's deadlines and health interval, and reports every
violation its live safety, liveness and health monitors found.
"""

from dataclasses import replace

from repro.monitor import HealthMonitor, LivenessMonitor
from repro.scenario import builtin_registry, run_scenario
from repro.trace.walkthroughs import TOUR


def run(args, emit) -> int:
    registry = builtin_registry()
    if args.list_scenarios:
        for name in TOUR:
            emit(f"{name:<22} {registry.get(name).title}")
        return 0
    names = [args.scenario] if args.scenario else TOUR
    deadlines = {"request_deadline": args.request_deadline,
                 "token_deadline": args.token_deadline,
                 "health_interval": args.health_interval}
    total_violations = 0
    last_health = None
    for name in names:
        try:
            spec = registry.get(name)
        except KeyError as exc:
            raise SystemExit(f"monitor: {exc.args[0]}") from exc
        result = run_scenario(replace(spec, monitors=deadlines),
                              trace=True)
        sim = result.sim
        hub = sim.monitor_hub
        n = len(hub.violations)
        total_violations += n
        status = "ok" if n == 0 else f"{n} VIOLATION(S)"
        emit(f"{name:<22} {len(sim.tracer.events):>5} events  "
             f"{len(hub.monitors)} monitors  {status}")
        for violation in hub.violations:
            emit(f"  {violation.monitor}: {violation.render()}")
        for monitor in hub.monitors:
            if isinstance(monitor, HealthMonitor):
                last_health = monitor
            if isinstance(monitor, LivenessMonitor):
                age = monitor.oldest_pending_age(sim.now)
                if age:
                    emit(f"  oldest pending request: {age:g}")
    if args.health_out is not None and last_health is not None:
        with open(args.health_out, "w", encoding="utf-8") as fh:
            fh.write(last_health.to_jsonl())
        emit(f"wrote {len(last_health.samples)} health samples to "
             f"{args.health_out}")
    if args.prom_out is not None and last_health is not None:
        with open(args.prom_out, "w", encoding="utf-8") as fh:
            fh.write(last_health.to_prometheus())
        emit(f"wrote Prometheus gauges to {args.prom_out}")
    if total_violations == 0:
        emit("all invariants held")
        return 0
    emit(f"{total_violations} invariant violation(s)")
    return 1
