"""Command-line interface: run mobile-system scenarios from a shell.

Three subcommands, one per section of the paper::

    python -m repro mutex  --algorithm L2 --n-mss 6 --n-mh 20 \
        --request-rate 0.05 --move-rate 0.02 --duration 500
    python -m repro groups --strategy location_view --group-size 8 \
        --message-rate 0.05 --move-rate 0.01 --duration 1000
    python -m repro proxy  --policy adaptive --move-rate 0.05 \
        --message-rate 0.05 --duration 1000

plus ``multicast`` (the paper's reference [1]), ``compare`` (measured
vs predicted costs), ``trace`` (run a builtin scenario traced and
export it as a Mermaid diagram, JSONL, or Chrome trace JSON),
``monitor``, ``scenarios``, ``scale`` and ``serve`` -- see
``docs/cli.md``.  Simulator speed is not measured from here: the
repository benchmark is ``bench/run.py`` (``docs/performance.md``).

Each prints a summary of what happened plus the cost report in the
paper's currency.  All runs are deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.mutex import ALGORITHMS as _MUTEX_ALGORITHMS
from repro.workload import GROUP_STRATEGIES, PROXY_POLICIES, SEARCHES, build

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.facade import Simulation

# Only the parser and the helpers the handlers share live here.  Each
# subcommand's handler is its own module under :mod:`repro.commands`
# and imports the layers it runs, so ``repro mutex`` compiles no other
# handler and never loads the proxy framework.  The choices come from
# the packages that resolve them: :mod:`repro.mutex` loads its
# algorithms on first access, and :mod:`repro.workload` (the drivers
# every run subcommand loads) names the group strategies, proxy
# policies and search protocols without loading them.

#: exit status after a closed stdout: 128 + SIGPIPE, what a shell
#: reports for a process the signal killed.
_EXIT_SIGPIPE = 141


def _float(text: str) -> float:
    """``text`` as a float; NaN when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _finite(text: str) -> float:
    """``scale --tick``: a finite number; its sign is the churn's to
    refuse (an infinite or NaN tick stopped the run unlocated)."""
    value = _float(text)
    if not -float("inf") < value < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}"
        )
    return value


def _nonnegative(text: str) -> float:
    """``--duration``, ``mutex --cs-duration``, ``--move-rate`` (0: no
    mobility) and ``serve --linger``: a finite number >= 0 (a NaN
    horizon never ended a run, a negative move rate ran a static one)."""
    value = _float(text)
    if not 0.0 <= value < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _fraction(text: str) -> float:
    """``scale``'s churn fractions: a number in [0, 1] (a NaN one died
    in a traceback, one above 1 was accepted silently)."""
    value = _float(text)
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(
            f"must be a number in [0, 1], got {text!r}"
        )
    return value


def _positive(text: str) -> float:
    """A rate, interval or deadline: a finite number > 0 (an infinite
    rate fires forever at one instant, a zero ``serve --quantum``
    never advances the soak)."""
    value = _float(text)
    if not 0.0 < value < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def _count(text: str) -> int:
    """A number of hosts or stations: an integer >= 0 (a negative
    ``scale --n-active`` ran silently with none)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}"
        )
    return value


def _recovery(text: str):
    """``--recovery``: a checkpoint policy spec, built here so that a
    bad one is a usage error naming the flag."""
    from repro.errors import ConfigurationError
    from repro.recovery import policy_from_spec

    try:
        return policy_from_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _port(text: str) -> int:
    """``serve --port``: a TCP port number, 0 to pick a free one."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be an integer in 0..65535, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run scenarios from 'Structuring Distributed Algorithms "
            "for Mobile Hosts' (ICDCS 1994)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n-mss", type=_count, default=6,
                       help="number of support stations (M)")
        p.add_argument("--n-mh", type=_count, default=12,
                       help="number of mobile hosts (N)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--duration", type=_nonnegative, default=500.0,
                       help="simulated time to run")
        p.add_argument("--move-rate", type=_nonnegative, default=0.0,
                       help="moves per MH per time unit")
        p.add_argument("--search", default="abstract",
                       choices=tuple(SEARCHES))
        p.add_argument("--c-fixed", type=float, default=1.0)
        p.add_argument("--c-wireless", type=float, default=5.0)
        p.add_argument("--c-search", type=float, default=10.0)
        p.add_argument(
            "--fault-plan", default=None, metavar="PATH_OR_JSON",
            help="fault plan to run under: path to a JSON file, or an "
                 "inline JSON object (starts with '{')",
        )
        p.add_argument(
            "--recovery", type=_recovery, default=None, metavar="POLICY",
            help="checkpointing policy for crash recovery: 'none', "
                 "'per-message', 'periodic:<interval>', or "
                 "'distance:<cells>' (Khatri-style; see "
                 "docs/system-model.md)",
        )

    mutex = sub.add_parser(
        "mutex", help="distributed mutual exclusion (Section 3)"
    )
    common(mutex)
    mutex.add_argument("--algorithm", default="L2",
                       choices=tuple(_MUTEX_ALGORITHMS))
    mutex.add_argument("--request-rate", type=_positive, default=0.05,
                       help="requests per MH per time unit")
    mutex.add_argument("--cs-duration", type=_nonnegative, default=0.5)

    groups = sub.add_parser(
        "groups", help="group location management (Section 4)"
    )
    common(groups)
    groups.add_argument("--strategy", default="location_view",
                        choices=sorted(GROUP_STRATEGIES))
    groups.add_argument("--group-size", type=_count, default=6)
    groups.add_argument("--message-rate", type=_positive, default=0.05,
                        help="group messages per time unit")

    proxy = sub.add_parser(
        "proxy", help="the proxy framework (Section 5)"
    )
    common(proxy)
    proxy.add_argument("--policy", default="fixed",
                       choices=sorted(PROXY_POLICIES))
    proxy.add_argument("--message-rate", type=_positive, default=0.05,
                       help="MH-to-MH letters per time unit")

    multicast = sub.add_parser(
        "multicast",
        help="exactly-once multicast (the paper's reference [1])",
    )
    common(multicast)
    multicast.add_argument("--group-size", type=_count, default=6)
    multicast.add_argument("--message-rate", type=_positive, default=0.05)
    multicast.add_argument("--no-gc", action="store_true",
                           help="disable buffer garbage collection")

    compare = sub.add_parser(
        "compare",
        help="reproduce the paper's headline comparisons, "
             "measured vs predicted",
    )
    common(compare)
    compare.add_argument(
        "--experiment", default="all",
        choices=["all", "lamport", "ring", "groups", "recovery"],
        help="which comparison to run (default: all)",
    )

    trace = sub.add_parser(
        "trace",
        help="run a builtin scenario traced and export its trace",
    )
    trace.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="builtin scenario to run (walkthroughs: see --list)",
    )
    trace.add_argument(
        "--format", default="summary", dest="fmt",
        choices=["summary", "mermaid", "jsonl", "chrome"],
        help="output format: human summary, Mermaid sequence diagram, "
             "JSON Lines, or Chrome trace_event JSON (Perfetto)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the export to PATH instead of stdout",
    )
    trace.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )

    monitor = sub.add_parser(
        "monitor",
        help="run scenarios under the invariant monitors and report "
             "violations",
    )
    monitor.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario to certify (default: all; see --list)",
    )
    monitor.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )
    monitor.add_argument(
        "--request-deadline", type=_positive, default=200.0,
        help="liveness watchdog: max sim-time age of an unserved "
             "request (default 200)",
    )
    monitor.add_argument(
        "--token-deadline", type=_positive, default=120.0,
        help="liveness watchdog: max sim-time without a token arrival "
             "while requests pend (default 120)",
    )
    monitor.add_argument(
        "--health-interval", type=_positive, default=25.0,
        help="sim-time between health gauge samples (default 25)",
    )
    monitor.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="write the health time-series as JSONL to PATH",
    )
    monitor.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the final health sample as Prometheus text to PATH",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="run the declarative chaos-scenario pack under the "
             "invariant monitors (see docs/scenarios.md)",
    )
    scenarios.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run one scenario (default: all matching --tag)",
    )
    scenarios.add_argument(
        "--tag", default=None, metavar="TAG",
        help="restrict to scenarios carrying TAG (e.g. 'chaos')",
    )
    scenarios.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="seeds to certify across: comma-separated integers and "
             "ranges a..b (default: each scenario's own seed)",
    )
    scenarios.add_argument(
        "--report-dir", default=None, metavar="DIR",
        help="write one structured JSON report per run into DIR",
    )
    scenarios.add_argument(
        "--file", default=None, metavar="PATH",
        help="run a scenario spec from PATH instead of the built-in "
             "pack",
    )
    scenarios.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the pack (names, tags, titles) and exit",
    )

    scale = sub.add_parser(
        "scale",
        help="drive an array-backed population at large N "
             "(see docs/scaling.md)",
    )
    scale.add_argument("--n-mss", type=_count, default=16,
                       help="number of support stations (M)")
    scale.add_argument("--n-mh", type=_count, default=10_000,
                       help="population size N (array-backed)")
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--duration", type=_nonnegative, default=200.0,
                       help="simulated time to run")
    scale.add_argument("--tick", type=_finite, default=10.0,
                       help="sim-time between crowd churn waves")
    scale.add_argument("--move-fraction", type=_fraction, default=0.01,
                       help="fraction of the passive crowd moved per "
                            "tick")
    scale.add_argument("--disconnect-fraction", type=_fraction,
                       default=0.002)
    scale.add_argument("--reconnect-fraction", type=_fraction,
                       default=0.5)
    scale.add_argument("--n-active", type=_count, default=8,
                       help="promoted hosts running real L2 mutex "
                            "traffic")
    scale.add_argument("--max-active", type=_count, default=None,
                       help="soft cap on promoted hosts "
                            "(default 1024)")

    serve = sub.add_parser(
        "serve",
        help="run a monitored soak workload and serve live telemetry "
             "over HTTP (/metrics, /health, /invariants)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default loopback)")
    serve.add_argument("--port", type=_port, default=8077,
                       help="TCP port; 0 picks a free one")
    serve.add_argument("--n-mss", type=_count, default=6)
    serve.add_argument("--n-mh", type=_count, default=40)
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument("--duration", type=_nonnegative, default=0.0,
                       help="simulated time to run; 0 means soak "
                            "until interrupted")
    serve.add_argument("--quantum", type=_positive, default=50.0,
                       help="sim-time advanced per serve-loop step; "
                            "the ledger drains between steps so "
                            "scrapes stay fresh")
    serve.add_argument("--request-rate", type=_positive, default=0.05,
                       help="mutex requests per MH per time unit")
    serve.add_argument("--move-rate", type=_nonnegative, default=0.02,
                       help="moves per MH per time unit")
    serve.add_argument("--linger", type=_nonnegative, default=0.0,
                       help="wall-clock seconds to keep serving after "
                            "a bounded --duration run completes")

    return parser


def _parse_fault_plan(spec: Optional[str]):
    if spec is None:
        return None
    from repro.errors import ConfigurationError
    from repro.faults import FaultPlan

    try:
        if spec.lstrip().startswith("{"):
            return FaultPlan.from_json(spec)
        return FaultPlan.load(spec)
    except (OSError, ValueError, ConfigurationError) as exc:
        raise SystemExit(f"--fault-plan: {exc}") from exc


def _rng(seed: int):
    """A seeded generator; ``random`` loads with the first handler that
    draws, not with the parser."""
    import random

    return random.Random(seed)


def _build_sim(args) -> Simulation:
    from repro.facade import Simulation
    from repro.metrics import CostModel

    return Simulation(
        n_mss=args.n_mss,
        n_mh=args.n_mh,
        seed=args.seed,
        cost_model=CostModel(
            c_fixed=args.c_fixed,
            c_wireless=args.c_wireless,
            c_search=args.c_search,
        ),
        search=args.search,
        fault_plan=_parse_fault_plan(getattr(args, "fault_plan", None)),
        recovery=getattr(args, "recovery", None),
    )


def _wire(sim: Simulation, args, workload: dict):
    """Wire ``workload`` (a scenario spec's workload keys) into ``sim``
    through :func:`repro.workload.build`, seeded by ``--seed`` and with
    uniform mobility at ``--move-rate``."""
    mobility = ({"kind": "uniform", "rate": args.move_rate}
                if args.move_rate > 0 else None)
    return build(sim, workload, args.seed, mobility)


def _print_report(sim: Simulation, emit) -> None:
    report = sim.metrics.report(sim.cost_model)
    emit("")
    emit("message totals : "
         + ", ".join(f"{k}={v}" for k, v in report["totals"].items()))
    emit(f"total cost     : {report['cost_total']:.1f}")
    for scope in sorted(report["cost_by_scope"]):
        emit(f"  {scope:<16}: {report['cost_by_scope'][scope]:.1f}")
    emit(f"MH energy      : {report['energy_total']} wireless ops")
    if sim.recovery is not None:
        restored = [seq for (_, _, seq) in sim.recovery.restored]
        emit(f"checkpointing  : policy={sim.recovery.policy.name} "
             f"taken={sim.recovery.checkpoints_taken} "
             f"restored={len([s for s in restored if s >= 0])} "
             f"restarted={len([s for s in restored if s < 0])}")
    snap = sim.metrics.snapshot()
    if snap.faults or snap.recovery_times:
        from repro.metrics.render import fault_summary

        emit("")
        emit("fault events:")
        for line in fault_summary(snap).splitlines():
            emit(f"  {line}")


def main(argv: Optional[List[str]] = None, emit=print) -> int:
    """CLI entry point; returns a process exit code.

    ``repro <command>`` runs ``repro.commands.<command>.run(args,
    emit)`` and imports no other handler.  A
    :class:`~repro.errors.ConfigurationError` from a subcommand is a
    usage error: one ``repro: error: ...`` line on stderr and exit
    status 2, the shape argparse gives its own errors.  A closed
    stdout (``repro ... | head -1``) ends the run quietly with the
    status a SIGPIPE death would have.
    """
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        # __import__ so that ``-X importtime`` sees the handler load.
        command = __import__(f"repro.commands.{args.command}",
                             fromlist=["run"])
        status = command.run(args, emit)
        sys.stdout.flush()
        return status
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os

        # The buffered remainder can never be written; point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_SIGPIPE
