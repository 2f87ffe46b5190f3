"""``repro trace``: run a builtin scenario traced and export its trace.

Any name in :func:`repro.scenario.builtin_registry` (``--list`` shows
the scenarios of the paper walkthroughs in ``docs/walkthroughs/``),
run through :func:`repro.scenario.run_scenario` with ``trace=True``
and exported as a summary, a Mermaid sequence diagram, JSON Lines or
Chrome trace_event JSON.
"""

from collections import Counter

from repro.cli import _print_report
from repro.scenario import builtin_registry, run_scenario
from repro.trace import to_chrome, to_jsonl, to_mermaid
from repro.trace.walkthroughs import TOUR


def run(args, emit) -> int:
    registry = builtin_registry()
    if args.list_scenarios:
        for name in TOUR:
            emit(f"{name:<22} {registry.get(name).title}")
        return 0
    if args.scenario is None:
        raise SystemExit("trace: --scenario is required (see --list)")
    try:
        spec = registry.get(args.scenario)
    except KeyError as exc:
        raise SystemExit(f"trace: {exc.args[0]}") from exc
    result = run_scenario(spec, trace=True)
    events = result.sim.tracer.events

    if args.fmt == "mermaid":
        text = to_mermaid(events, title=spec.title)
    elif args.fmt == "jsonl":
        text = to_jsonl(events)
    elif args.fmt == "chrome":
        text = to_chrome(events)
    else:
        by_type = Counter(e.etype for e in events)
        lines = [
            f"scenario       : {spec.name} -- {spec.title}",
            f"trace events   : {len(events)}",
        ]
        for etype, count in sorted(by_type.items()):
            lines.append(f"  {etype:<20}: {count}")
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in result.notes)
        text = "\n".join(lines)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        emit(f"wrote {len(events)} events to {args.out} "
             f"({args.fmt})")
    else:
        for line in text.splitlines():
            emit(line)
    if args.fmt == "summary" and args.out is None:
        _print_report(result.sim, emit)
    return 0
