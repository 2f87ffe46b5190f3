"""The repository benchmark: one command, six workloads.

    PYTHONPATH=src python bench/run.py [--seed 7] [--workload NAME]
                                       [--traced] [--json OUT]

Without ``--workload`` every workload runs in its own fresh subprocess
(so ``peak_rss_mb`` is per workload) and a table of every metric is
printed.  With ``--workload`` one workload runs in this process -- the
form ``BENCHMARK.json``'s driver uses::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of output is one JSON object: the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The exit code is non-zero on a determinism or correctness break.  See
``bench/README.md`` for the metric definitions and the method.
"""

from __future__ import annotations

import argparse
import ast
import gc
import glob
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import refclock  # noqa: E402
import shim as shim_module  # noqa: E402
import workloads  # noqa: E402
from shim import LAYERS  # noqa: E402

DEFAULT_SEED = 7
#: never develop a later change against this seed; claims are checked on it.
HELD_OUT_SEED = 1994
MIN_REPEATS = 5

#: end-to-end metrics: unit, better direction, regression bound (share
#: of the baseline median; 0 = exact, any change is a behaviour change).
#: ``None`` values are reported where a metric does not apply.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.10),
    "events_per_s": ("1/s", "higher", 0.10),
    "cold_start_ms": ("ms", "lower", 0.10),
    "cold_start_p75_ms": ("ms", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "fail_share": ("ratio", "lower", 0.0),
    "cost_error": ("cost", "lower", 0.0),
    "cost_per_op": ("cost/op", "lower", 0.0),
}


class BenchmarkBroken(Exception):
    """A determinism or correctness break: the numbers mean nothing."""


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def signature(outcome: workloads.Outcome) -> tuple:
    """What must be identical from one repeat to the next."""
    digest = hashlib.sha256(
        json.dumps(outcome.cost, sort_keys=True, default=str).encode()
    ).hexdigest()
    return (outcome.events, outcome.attempted, outcome.failed, digest)


def one_repeat(cls, seed: int, tiny: bool):
    """Build and run one fresh system; returns
    ``(setup timer, run timer, outcome)``."""
    gc.collect()
    workload = cls(seed, tiny)
    setup = refclock.RefTimer()
    setup.slice(workload.build)
    run = refclock.RefTimer()
    for step in workload.steps():
        run.slice(step)
    return setup, run, workload.outcome()


def summarize(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def measure(cls, seed: int, seconds: float, tiny: bool = False,
            warmups: Optional[int] = None,
            min_repeats: int = MIN_REPEATS) -> dict:
    """Untimed warm-ups, then timed repeats until ``seconds`` have
    passed (at least ``min_repeats``); returns the workload's record."""
    warmups = cls.warmups if warmups is None else warmups
    reference = None
    outcome = None
    samples: Dict[str, List[float]] = {
        name: [] for name in ("setup_s", "run_s", "events_per_s",
                              "setup_wall_s", "run_wall_s", "slice_ms")
    }
    started = None
    repeat = 0
    while True:
        timed = repeat >= warmups
        if timed and started is None:
            started = perf_counter()
        setup, run, outcome = one_repeat(cls, seed, tiny)
        if reference is None:
            reference = signature(outcome)
        elif signature(outcome) != reference:
            raise BenchmarkBroken(
                f"{cls.name}: repeat {repeat} fired {outcome.events} "
                f"events / snapshot {signature(outcome)[3][:12]}, the "
                f"first fired {reference[0]} / {reference[3][:12]}"
            )
        repeat += 1
        if not timed:
            continue
        samples["setup_s"].append(setup.ref_s)
        samples["run_s"].append(run.ref_s)
        samples["setup_wall_s"].append(setup.wall_s)
        samples["run_wall_s"].append(run.wall_s)
        samples["events_per_s"].append(outcome.events / run.ref_s)
        samples["slice_ms"].extend(1e3 * part for part in run.parts)
        if (len(samples["run_s"]) >= min_repeats
                and perf_counter() - started >= seconds):
            break
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if cls.out_of_process
        else resource.RUSAGE_SELF)
    completed = outcome.attempted - outcome.failed
    values = {
        "setup_s": summarize(samples["setup_s"]),
        "run_s": summarize(samples["run_s"]),
        "events_per_s": summarize(samples["events_per_s"]),
        "cold_start_ms": None,
        "cold_start_p75_ms": None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fail_share": outcome.failed / outcome.attempted,
        "cost_error": cls.cost_error(),
        "cost_per_op": (outcome.cost_total / completed
                        if outcome.cost_total and completed else None),
    }
    if cls.out_of_process:
        spawns = summarize(samples["slice_ms"])
        values["cold_start_ms"] = spawns
        values["cold_start_p75_ms"] = spawns["q3"]
    metrics = {}
    for name, (unit, better, bound) in END_TO_END.items():
        value = values[name]
        entry = value if isinstance(value, dict) else {"median": value}
        metrics[name] = dict(entry, unit=unit, better=better, bound=bound)
    metrics["setup_s"]["raw_wall_s"] = statistics.median(
        samples["setup_wall_s"])
    metrics["run_s"]["raw_wall_s"] = statistics.median(
        samples["run_wall_s"])
    return {
        "workload": cls.name,
        "seed": seed,
        "repeats": len(samples["run_s"]),
        "events": outcome.events,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "snapshot": reference[3],
        "failures": outcome.failures,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(outcome: workloads.Outcome,
                      shim: shim_module.Shim,
                      traced_s: float, untraced_s: float) -> Dict[str, float]:
    """Every per-layer metric, from the program's public counters where
    they exist and from the shim's call counts otherwise."""
    metrics: Dict[str, float] = {}

    def count(key: str) -> float:
        return outcome.counters.get(key, 0)

    for layer in LAYERS:
        metrics[f"{layer}.calls"], metrics[f"{layer}.self_s"] = (
            shim.layers[layer])
    self_s = {layer: totals[1] for layer, totals in shim.layers.items()}

    def seconds(key: str, caller: Optional[str] = None) -> float:
        return shim.spans_opened(key, caller)[1]

    events = count("sim.events_fired")
    cancels = shim.count("repro.sim.scheduler.Event.cancel")
    fixed = count("net.fixed_msgs")
    wireless = count("net.wireless_msgs")
    local = shim.count("repro.net.network.Network.send_fixed?")
    # One search per call into a search protocol from outside it (a
    # caching protocol falling back to its inner one is the same search).
    searches = sum(
        n for (_, key), (n, _) in shim.opened.items()
        if key.endswith(".search")
        and shim_module.layer_of_module(
            key.rsplit(".", 2)[0]) == "net.search"
    )
    send_to_mh = "repro.net.network.Network.send_to_mh"
    reliable_sends = shim.count("repro.net.reliable.ReliableTransport.send")
    retransmits = count("net.reliable.retransmits")
    grants = count("mutex.grants")
    records = shim.count_prefix(
        "repro.metrics.collector.MetricsCollector.record_")
    rows = count("obs.ledger_rows")
    seen = rows + shim.count("repro.monitor.hub.MonitorHub.emit",
                             "repro.monitor.hub.MonitorHub.emit_gated")
    run_scenario = "repro.scenario.runner.run_scenario"
    metrics.update({
        "sim.events_fired": events,
        "sim.posts": shim.posts,
        "sim.cancels": cancels,
        "sim.cancel_ratio": ratio(cancels, shim.posts),
        "sim.pending_peak": count("sim.pending_peak"),
        "sim.self_us_per_event": 1e6 * ratio(self_s["sim"], events),
        "pool.hit_ratio": ratio(
            count("pool.reused"),
            count("pool.reused") + count("pool.created")),
        "net.fixed_msgs": fixed,
        "net.wireless_msgs": wireless,
        "net.local_msgs": local,
        "net.self_us_per_msg": 1e6 * ratio(
            self_s["net"], fixed + wireless + local),
        "net.search.searches": searches,
        "net.search.probes": count("net.search.probes"),
        # send_to_mh calls that did not come from another layer are the
        # network re-searching for a host that moved mid-delivery.
        "net.search.retries": (
            shim.count(send_to_mh) - shim.spans_opened(send_to_mh)[0]),
        "net.search.delivered_ratio": ratio(
            count("pings.delivered"), count("pings.sent")),
        "net.reliable.sends": reliable_sends,
        "net.reliable.retransmits": retransmits,
        "net.reliable.goodput_ratio": ratio(
            reliable_sends, reliable_sends + retransmits),
        "hosts.messages_handled": shim.count(
            "repro.hosts.base.Host.handle_message"),
        "hosts.moves": shim.count("repro.hosts.mh.MobileHost.move_to"),
        "hosts.handoffs": shim.count("handler:sys.handoff_request"),
        "hosts.disconnects": shim.count(
            "repro.hosts.mh.MobileHost.disconnect"),
        "mutex.requests": count("mutex.requests"),
        "mutex.grants": grants,
        "mutex.dropped_requests": count("mutex.dropped_requests"),
        "mutex.msgs_per_grant": ratio(fixed + wireless, grants),
        "groups.messages": count("groups.messages"),
        "groups.deliveries": count("groups.deliveries"),
        "groups.location_updates": count("groups.location_updates"),
        "groups.significant_move_ratio": ratio(
            count("groups.significant_moves"),
            count("groups.view_moves")),
        "metrics.records": records,
        "metrics.self_us_per_record": 1e6 * ratio(
            self_s["metrics"], records),
        "monitor.events_seen": seen,
        "monitor.violations": count("monitor.violations"),
        "monitor.self_us_per_event": 1e6 * ratio(self_s["monitor"], seen),
        "obs.ledger_rows": rows,
        "obs.drains": shim.count(
            "repro.monitor.hub.MonitorHub.drain_batches"),
        "faults.injected": count("faults.injected"),
        "recovery.checkpoints": count("recovery.checkpoints"),
        "recovery.restores": count("recovery.restores"),
        "scenario.runs": count("scenario.runs"),
        # Everything a scenario run does besides advancing simulated
        # time: construction, wiring, finalize, evaluation, report.
        "scenario.build_s": (
            seconds(run_scenario)
            - seconds("repro.facade.Simulation.run", "scenario")
            - seconds("repro.facade.Simulation.drain", "scenario")),
        "facade.build_s": seconds("repro.facade.Simulation.__init__"),
        "scale.build_s": seconds(
            "repro.scale.store.PopulationStore.__init__"),
        "scale.bytes_per_mh": ratio(
            count("scale.bytes"), count("scale.hosts")),
        "scale.promotions": count("scale.promotions"),
        "scale.demotions": count("scale.demotions"),
        "scale.churn_ticks": count("scale.churn_ticks"),
        "cli.import_ms": 0.0,
        "cli.modules_imported": 0,
        "cli.main_ms": 0.0,
        "trace.overhead_x": ratio(traced_s, untraced_s),
        "trace.coverage": ratio(shim.events, events),
        "trace.missing_boundaries": shim.missing_boundaries,
    })
    return metrics


def trace_cli(seed: int) -> Dict[str, float]:
    """cli_cold's traced run: one ``-X importtime`` spawn, its import
    self-times folded into the layers by module prefix."""
    workloads.spawn_cli(seed)
    timer = refclock.RefTimer()
    timer.slice(workloads.spawn_cli, seed)
    untraced_s = timer.ref_s
    timer = refclock.RefTimer()
    done = timer.slice(workloads.spawn_cli, seed, ("-X", "importtime"))
    if done.returncode != 0:
        raise BenchmarkBroken(f"cli_cold: traced spawn exited "
                              f"{done.returncode}")
    layer_self, layer_modules, import_s, modules, unattributed = (
        shim_module.fold_importtime(done.stderr))
    empty = shim_module.Shim()
    metrics = per_layer_metrics(workloads.Outcome(), empty,
                                timer.ref_s, untraced_s)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layer_modules[layer]
        metrics[f"{layer}.self_s"] = layer_self[layer]
    attributed = sum(layer_self.values())
    metrics.update({
        "cli.import_ms": 1e3 * import_s,
        "cli.modules_imported": modules,
        "cli.main_ms": 1e3 * max(0.0, timer.wall_s - import_s),
        # The share of repro's own import time that falls in a layer
        # (repro.trace, repro.analysis and repro.perf are not layers).
        "trace.coverage": ratio(attributed, attributed + unattributed),
    })
    return metrics


def trace(cls, seed: int, tiny: bool = False,
          shim: Optional[shim_module.Shim] = None) -> dict:
    """One untraced and one traced repeat of ``cls``; the traced one
    must reproduce the untraced event count and cost snapshot."""
    if cls.out_of_process:
        return {"workload": cls.name, "seed": seed, "attempted": 1,
                "failed": 0, "metrics": trace_cli(seed)}
    if not tiny:
        one_repeat(cls, seed, tiny)  # warm caches before comparing
    _, untraced, expected = one_repeat(cls, seed, tiny)
    if shim is None:
        shim = shim_module.Shim()
        shim.install()
    shim.reset()
    _, traced, outcome = one_repeat(cls, seed, tiny)
    if signature(outcome) != signature(expected):
        raise BenchmarkBroken(
            f"{cls.name}: the traced run fired {outcome.events} events / "
            f"snapshot {signature(outcome)[3][:12]}, untraced "
            f"{expected.events} / {signature(expected)[3][:12]}"
        )
    metrics = per_layer_metrics(outcome, shim, traced.ref_s, untraced.ref_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    shim.write_spans(os.path.join(OUT_DIR, f"{cls.name}.spans.jsonl"))
    return {"workload": cls.name, "seed": seed,
            "events": outcome.events, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def is_correct(record: dict) -> bool:
    """Outputs check out: the analytic probes are exact.  (Determinism
    and traced == untraced raise before a record exists.)"""
    return record["metrics"]["cost_error"]["median"] in (None, 0)


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}) ==")
    if "repeats" in record:
        print(f"repeats {record['repeats']}  events {record['events']}  "
              f"ops {record['attempted']}  failed {record['failed']}  "
              f"snapshot {record['snapshot'][:12]}")
        for line in record["failures"]:
            print(f"  FAILED {line}")
        for name, entry in record["metrics"].items():
            median = entry["median"]
            if median is None:
                print(f"{name:<22} n/a")
                continue
            text = f"{name:<22} {median:.6g} {entry['unit']}"
            if "q1" in entry:
                text += (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                         f"n {entry['n']}]")
            if "raw_wall_s" in entry:
                text += f"  (raw wall {entry['raw_wall_s']:.4f} s)"
            print(text)
    else:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for name, value in record["metrics"].items():
            print(f"{name:<30} {value:.6g} {units.get(name, '')}")


def contract_line(record: dict, spec: dict, traced: bool) -> str:
    """The driver's result: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        value = record["metrics"][entry["name"]]
        if isinstance(value, dict):
            value = value["median"]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": True if traced else is_correct(record),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def run_one(args) -> int:
    cls = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    if args.trace:
        record = trace(cls, args.seed)
    else:
        record = measure(cls, args.seed, args.seconds)
    print_record(record)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(contract_line(record, spec, bool(args.trace)))
    return 0 if args.trace or is_correct(record) else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one at a time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    combined = {"seed": args.seed, "seconds": args.seconds,
                "workloads": {}, "traced": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for traced in ([0, 1] if args.traced else [0]):
            path = os.path.join(OUT_DIR, f"{name}.trace{traced}.json")
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(traced),
                 "--json", path],
                env=env, capture_output=True, text=True,
            )
            # The child's last line is the driver's JSON; the table
            # above it is for people.
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if done.returncode != 0:
                sys.stdout.write(done.stderr)
                print(f"{name}: exit {done.returncode}")
                status = 1
                continue
            with open(path, encoding="utf-8") as handle:
                combined["traced" if traced else "workloads"][name] = (
                    json.load(handle))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=1)
    return status


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------

KNOBS = {"scheduler", "pooling", "monitor_sampling", "monitor_mode"}


def knob_violations(source: str, filename: str) -> List[str]:
    """Uses of a performance knob, ``repro.perf`` or a private attribute
    in benchmark source -- the benchmark measures the defaults through
    the public API, so later changes can delete switches freely."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.keyword) and node.arg in KNOBS:
            found.append(f"{where}: passes {node.arg}=")
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and key.value in KNOBS:
                    found.append(f"{where}: passes {key.value}=")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{n}" for n in names]
            if any(n == "repro.perf" or n.startswith("repro.perf.")
                   for n in names):
                found.append(f"{where}: imports repro.perf")
        elif isinstance(node, ast.Attribute):
            private = (node.attr.startswith("_")
                       and not node.attr.endswith("__"))
            own = (isinstance(node.value, ast.Name)
                   and node.value.id in ("self", "cls"))
            if private and not own:
                found.append(f"{where}: touches .{node.attr}")
    return found


def selftest(seeds=(DEFAULT_SEED, 11)) -> List[str]:
    """Tiny sizes, well under 15 s; returns the list of problems."""
    problems: List[str] = []
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            problems += knob_violations(handle.read(),
                                        os.path.relpath(path, REPO_ROOT))
    spec = load_spec()
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    problems += [f"bad name in BENCHMARK.json: {name!r}" for name in names
                 if not re.fullmatch(r"[A-Za-z0-9_.-]+", name)]
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/")
    records = {}
    try:
        # Untraced first: the shims, once installed, stay installed.
        for seed in seeds:
            for name, cls in workloads.WORKLOADS.items():
                records[name, seed] = record = measure(
                    cls, seed, 0.0, tiny=True, warmups=0, min_repeats=2)
                if not is_correct(record):
                    problems.append(f"{name}@{seed}: cost_error != 0")
                problems += [f"{name}@{seed}: {line}"
                             for line in record["failures"]]
                missing = [e["name"] for e in spec["end_to_end"]
                           if record["metrics"][e["name"]]["median"]
                           in (None, 0)]
                if missing:
                    problems.append(f"{name}@{seed}: no value for {missing}")
            if (records["mutex_certified", seed]["events"]
                    != records["mutex_mobile", seed]["events"]):
                problems.append(f"seed {seed}: mutex_certified and "
                                f"mutex_mobile fired different events")
        shim = shim_module.Shim(span_events=50)
        shim.install()
        expected = sorted(entry["name"] for entry in spec["per_layer"])
        for seed in seeds:
            for name, cls in workloads.WORKLOADS.items():
                record = trace(cls, seed, tiny=True, shim=shim)
                if sorted(record["metrics"]) != expected:
                    problems.append(f"{name}@{seed}: per-layer names differ "
                                    f"from BENCHMARK.json")
                if ("events" in record and record["events"]
                        != records[name, seed]["events"]):
                    problems.append(f"{name}@{seed}: traced events differ")
                if (name == "mutex_mobile"
                        and record["metrics"]["monitor.calls"] != 0):
                    problems.append(f"{name}@{seed}: monitor.calls != 0")
                if (name == "mutex_certified"
                        and record["metrics"]["monitor.calls"] == 0):
                    problems.append(f"{name}@{seed}: monitor.calls == 0")
    except BenchmarkBroken as exc:
        problems.append(str(exc))
    return problems


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one workload measures "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: 1 = the traced run")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also run each "
                             "workload's traced run")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full record(s) here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        problems = selftest()
        for problem in problems:
            print(f"selftest: {problem}")
        print(f"selftest: {'FAILED' if problems else 'ok'}")
        return 1 if problems else 0
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.seed == HELD_OUT_SEED:
        print(f"note: seed {HELD_OUT_SEED} is held out -- use it to check "
              f"a finished change, not while developing one")
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same process, fixed string hashing: one source of run-to-run
        # timing variation less.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    try:
        return run_one(args)
    except BenchmarkBroken as exc:
        print(f"BROKEN: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
