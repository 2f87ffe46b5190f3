"""``repro trace``: run a canonical traced scenario and export it.

The scenarios behind the paper walkthroughs (``docs/walkthroughs/``),
exported as a summary, a Mermaid sequence diagram, JSON Lines or Chrome
trace_event JSON.
"""

from collections import Counter

from repro.cli import _print_report
from repro.trace import to_chrome, to_jsonl, to_mermaid
from repro.trace.scenarios import SCENARIOS, run_scenario


def run(args, emit) -> int:
    if args.list_scenarios:
        for name, factory in SCENARIOS.items():
            emit(f"{name:<22} {(factory.__doc__ or '').splitlines()[0]}")
        return 0
    if args.scenario is None:
        raise SystemExit("trace: --scenario is required (see --list)")
    try:
        run = run_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(f"trace: {exc.args[0]}") from exc

    if args.fmt == "mermaid":
        text = to_mermaid(run.events, title=run.title)
    elif args.fmt == "jsonl":
        text = to_jsonl(run.events)
    elif args.fmt == "chrome":
        text = to_chrome(run.events)
    else:
        by_type = Counter(e.etype for e in run.events)
        lines = [
            f"scenario       : {run.name} -- {run.title}",
            f"trace events   : {len(run.events)}",
        ]
        for etype, count in sorted(by_type.items()):
            lines.append(f"  {etype:<20}: {count}")
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in run.notes)
        text = "\n".join(lines)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        emit(f"wrote {len(run.events)} events to {args.out} "
             f"({args.fmt})")
    else:
        for line in text.splitlines():
            emit(line)
    if args.fmt == "summary" and args.out is None:
        _print_report(run.sim, emit)
    return 0
