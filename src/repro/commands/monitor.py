"""``repro monitor``: certify the canonical scenarios under the
invariant monitors.

Replays each traced scenario of the paper walkthroughs through the
safety, liveness and health monitors and reports every violation.
"""

from repro.monitor import (
    HealthMonitor,
    LivenessMonitor,
    default_monitors,
    replay_events,
)
from repro.trace.scenarios import SCENARIOS, run_scenario


def run(args, emit) -> int:
    if args.list_scenarios:
        for name, factory in SCENARIOS.items():
            emit(f"{name:<22} {(factory.__doc__ or '').splitlines()[0]}")
        return 0
    names = [args.scenario] if args.scenario else list(SCENARIOS)
    total_violations = 0
    last_health = None
    for name in names:
        try:
            run = run_scenario(name)
        except KeyError as exc:
            raise SystemExit(f"monitor: {exc.args[0]}") from exc
        monitors = default_monitors(
            request_deadline=args.request_deadline,
            token_deadline=args.token_deadline,
            health_interval=args.health_interval,
        )
        hub = replay_events(run.events, monitors,
                            network=run.sim.network)
        n = len(hub.violations)
        total_violations += n
        status = "ok" if n == 0 else f"{n} VIOLATION(S)"
        emit(f"{name:<22} {len(run.events):>5} events  "
             f"{len(hub.monitors)} monitors  {status}")
        for violation in hub.violations:
            emit(f"  {violation.monitor}: {violation.render()}")
        for monitor in hub.monitors:
            if isinstance(monitor, HealthMonitor):
                last_health = monitor
            if isinstance(monitor, LivenessMonitor):
                age = monitor.oldest_pending_age(run.sim.now)
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
