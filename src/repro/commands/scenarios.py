"""``repro scenarios``: certify the declarative chaos-scenario pack
(ROADMAP item 1).

Runs pack scenarios (or one spec file) across seeds under every
invariant monitor; exit status 1 when any run fails certification.
"""

import json
import os

from repro.errors import ConfigurationError
from repro.scenario import (
    builtin_registry,
    load_file,
    parse_seeds,
    render_summary,
    run_scenario,
)


def run(args, emit) -> int:
    try:
        registry = builtin_registry()
    except ConfigurationError as exc:
        raise SystemExit(f"scenarios: {exc}") from exc

    if args.list_scenarios:
        for spec in registry.specs(args.tag):
            tags = ",".join(spec.tags)
            emit(f"{spec.name:<28} [{tags}] {spec.title}")
        return 0

    if args.file is not None:
        try:
            specs = [load_file(args.file)]
        except (OSError, ConfigurationError) as exc:
            raise SystemExit(f"scenarios: {exc}") from exc
    elif args.scenario is not None:
        try:
            specs = [registry.get(args.scenario)]
        except KeyError as exc:
            raise SystemExit(f"scenarios: {exc.args[0]}") from exc
    else:
        specs = registry.specs(args.tag)
        if not specs:
            raise SystemExit(
                f"scenarios: no scenario carries tag {args.tag!r}; "
                f"tags: {', '.join(registry.tags())}"
            )

    seeds = None
    if args.seeds is not None:
        try:
            seeds = parse_seeds(args.seeds)
        except ConfigurationError as exc:
            raise SystemExit(f"scenarios: --seeds: {exc}") from None

    if args.report_dir is not None:
        os.makedirs(args.report_dir, exist_ok=True)
    results = []
    for spec in specs:
        for seed in (seeds if seeds is not None else [spec.seed]):
            result = run_scenario(spec, seed=seed)
            results.append(result)
            if args.report_dir is not None:
                path = os.path.join(
                    args.report_dir, f"{spec.name}-seed{seed}.json"
                )
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(result.report, fh, indent=2)
                    fh.write("\n")
    for line in render_summary(results):
        emit(line)
    if args.report_dir is not None:
        emit(f"wrote {len(results)} report(s) to {args.report_dir}")
    failed = [r for r in results if not r.ok]
    if failed:
        emit(f"{len(failed)} of {len(results)} run(s) FAILED "
             f"certification")
        return 1
    emit(f"all {len(results)} run(s) certified: every invariant held, "
         f"every expectation met")
    return 0
