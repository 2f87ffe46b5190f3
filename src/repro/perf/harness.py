"""The benchmark harness: measure, persist, compare, gate.

Runs curated :mod:`repro.perf.scenarios` workloads under
``time.perf_counter``, reports events/sec and peak RSS, writes the
machine-readable ``BENCH_<n>.json`` trajectory files checked into the
repository root, and renders delta tables against earlier records.

Two comparisons are supported:

* **raw** -- events/sec against events/sec.  Meaningful when both
  records come from the same machine (e.g. the before/after pair
  embedded in one ``BENCH_*.json``).
* **normalized** -- each record's events/sec is divided by its own
  ``calibration_ops_per_sec``, a pure-interpreter spin measured in the
  same process that is independent of the simulator's code.  The ratio
  of normalized scores cancels machine speed to first order, which is
  what the CI regression gate uses so a slow runner does not read as a
  regression (and a fast one does not mask it).  The calibration loop
  deliberately avoids the scheduler/network code under test, so a
  substrate regression cannot hide in its own yardstick.

Determinism doubles as integrity checking: a scenario must process the
same number of events on every repeat, and :func:`run_scenario` raises
if it does not.
Keeps the reproduction's substrate speed from eroding (ROADMAP perf arc).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, PerfGateError
from repro.obs.timing import consume_last_run
from repro.perf.scenarios import SCENARIOS, Scenario

try:  # pragma: no cover - absent on non-unix platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: schema version of the BENCH json files.
SCHEMA = 1

_BENCH_NAME_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _peak_rss_kb() -> Optional[int]:
    """Process-lifetime peak RSS in KiB (``None`` where unsupported).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    to KiB.  Being process-lifetime, per-scenario values are a running
    maximum -- still useful for spotting memory blowups.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _current_rss_kb() -> Optional[int]:
    """Instantaneous RSS in KiB (``None`` where /proc is unavailable).

    Unlike :func:`_peak_rss_kb` this is not monotonic, which is what
    the RSS-growth gate needs for its *before* reading: growth is
    measured from the footprint just before the scenario, not from the
    process-lifetime peak some earlier scenario may have set.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-linux
        pass
    return _peak_rss_kb()


def calibrate(iterations: int = 300_000) -> float:
    """Machine-speed yardstick: pure-interpreter ops/sec.

    A fixed mix of dict stores, integer arithmetic, and method-free
    loop overhead -- deliberately *not* the scheduler or network, so
    the yardstick is immune to regressions in the code under test.
    """
    best = float("inf")
    for _ in range(3):
        bucket: Dict[int, int] = {}
        acc = 0
        start = time.perf_counter()
        for i in range(iterations):
            acc += i
            bucket[i & 1023] = acc
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return iterations / best


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's measurement (best-of-``repeats`` wall time).

    ``rss_growth_kb`` is how far RSS rose above the pre-scenario
    footprint across all repeats; ``retained_blocks_per_kevent`` is the
    post-``gc.collect()`` allocated-block delta per thousand events.
    Both are the quantities the scale gates bound (``None`` where the
    platform cannot measure them).
    """

    name: str
    wall_time_s: float
    events: int
    events_per_sec: float
    peak_rss_kb: Optional[int]
    repeats: int
    rss_growth_kb: Optional[int] = None
    retained_blocks_per_kevent: Optional[float] = None
    #: per-subsystem wall-time split (scheduler/network/monitor/drain
    #: seconds) published by scenarios that opt into timing capture
    #: (``smoke_ledger``); ``None`` everywhere else.
    subsystem_wall_s: Optional[Dict[str, float]] = None

    def to_json(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "wall_time_s": round(self.wall_time_s, 6),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "peak_rss_kb": self.peak_rss_kb,
            "repeats": self.repeats,
            "rss_growth_kb": self.rss_growth_kb,
            "retained_blocks_per_kevent": (
                round(self.retained_blocks_per_kevent, 1)
                if self.retained_blocks_per_kevent is not None
                else None
            ),
        }
        if self.subsystem_wall_s is not None:
            record["subsystem_wall_s"] = {
                section: round(seconds, 6)
                for section, seconds in sorted(
                    self.subsystem_wall_s.items()
                )
            }
        return record


def resolve(name: str) -> Scenario:
    """Look up a scenario by registry name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}"
        ) from None


def run_scenario(
    scenario, repeats: int = 3
) -> ScenarioResult:
    """Measure one scenario (by name or :class:`Scenario`).

    Runs ``repeats`` times, keeps the best wall time (the standard
    noise-rejection choice for CPU-bound benchmarks), and raises if the
    event count is not identical across repeats -- a nondeterministic
    scenario cannot anchor a perf trajectory.

    Scenarios with resource gates set
    (:attr:`~repro.perf.scenarios.Scenario.max_rss_growth_kb`,
    :attr:`~repro.perf.scenarios.Scenario.max_retained_blocks_per_kevent`)
    additionally raise :class:`~repro.errors.PerfGateError` when a
    gate is exceeded -- that is the N=100k/N=1M memory check of
    ROADMAP item 2.
    """
    if isinstance(scenario, str):
        scenario = resolve(scenario)
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    gated = (
        scenario.max_rss_growth_kb is not None
        or scenario.max_retained_blocks_per_kevent is not None
    )
    events: Optional[int] = None
    if gated:
        # One untimed warm-up run so one-time costs (lazy layer
        # imports, interned strings, code objects) are paid before the
        # measurement window opens; the gates are after leaks *per
        # run*, not import footprints.
        events = scenario.run()
    gc.collect()
    rss_before = _current_rss_kb()
    blocks_before = sys.getallocatedblocks()
    best = float("inf")
    subsystem_wall: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        start = time.perf_counter()
        processed = scenario.run()
        elapsed = time.perf_counter() - start
        if events is None:
            events = processed
        elif processed != events:
            raise ConfigurationError(
                f"scenario {scenario.name!r} is nondeterministic: "
                f"{events} then {processed} events"
            )
        published = consume_last_run()
        if elapsed < best:
            best = elapsed
            # Keep the split from the best repeat so the numbers in the
            # BENCH record describe the wall time recorded next to them.
            if published is not None:
                subsystem_wall = published
    assert events is not None
    gc.collect()
    retained_blocks = sys.getallocatedblocks() - blocks_before
    peak_rss = _peak_rss_kb()
    rss_growth: Optional[int] = None
    if peak_rss is not None and rss_before is not None:
        rss_growth = max(0, peak_rss - rss_before)
    retained_per_kevent = (
        retained_blocks / (events / 1000.0) if events else 0.0
    )
    if (
        scenario.max_rss_growth_kb is not None
        and rss_growth is not None
        and rss_growth > scenario.max_rss_growth_kb
    ):
        raise PerfGateError(
            f"{scenario.name}: RSS grew {rss_growth} KiB, gate is "
            f"{scenario.max_rss_growth_kb} KiB"
        )
    if (
        scenario.max_retained_blocks_per_kevent is not None
        and retained_per_kevent > scenario.max_retained_blocks_per_kevent
    ):
        raise PerfGateError(
            f"{scenario.name}: retained {retained_per_kevent:.1f} "
            f"blocks/kevent after gc, gate is "
            f"{scenario.max_retained_blocks_per_kevent}"
        )
    return ScenarioResult(
        name=scenario.name,
        wall_time_s=best,
        events=events,
        events_per_sec=events / best if best > 0 else float("inf"),
        peak_rss_kb=peak_rss,
        repeats=repeats,
        rss_growth_kb=rss_growth,
        retained_blocks_per_kevent=retained_per_kevent,
        subsystem_wall_s=subsystem_wall,
    )


def run_suite(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    progress=None,
) -> Dict[str, object]:
    """Run a set of scenarios and assemble a BENCH record.

    Args:
        names: scenario names (default: the full registry).
        repeats: repeats per scenario (best-of).
        progress: optional callable receiving one line per scenario.
    """
    if names is None:
        names = list(SCENARIOS)
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_ops_per_sec": round(calibrate(), 1),
        "scenarios": {},
    }
    for name in names:
        result = run_scenario(name, repeats=repeats)
        record["scenarios"][name] = result.to_json()
        if progress is not None:
            progress(
                f"{name:<18} {result.events:>9} events  "
                f"{result.wall_time_s:>8.3f}s  "
                f"{result.events_per_sec:>10.0f} ev/s"
            )
    return record


def write_bench(record: Dict[str, object], path: str) -> None:
    """Write one BENCH record as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> Dict[str, object]:
    """Load a BENCH record, validating the schema version."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported BENCH schema {record.get('schema')!r}"
        )
    return record


def find_previous_bench(directory: str = ".") -> Optional[str]:
    """Path of the highest-numbered ``BENCH_<n>.json`` in ``directory``,
    or ``None`` when the perf trajectory is empty."""
    best_n = -1
    best_path = None
    for entry in os.listdir(directory):
        match = _BENCH_NAME_RE.match(entry)
        if match and int(match.group(1)) > best_n:
            best_n = int(match.group(1))
            best_path = os.path.join(directory, entry)
    return best_path


@dataclass(frozen=True)
class Delta:
    """One scenario's current-vs-baseline comparison."""

    name: str
    baseline_eps: float
    current_eps: float
    raw_ratio: float
    normalized_ratio: Optional[float]

    @property
    def raw_pct(self) -> float:
        """Raw speedup in percent (+ faster, - slower)."""
        return (self.raw_ratio - 1.0) * 100.0


def compare(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[Delta]:
    """Per-scenario deltas for every scenario present in both records."""
    deltas: List[Delta] = []
    cur_cal = current.get("calibration_ops_per_sec")
    base_cal = baseline.get("calibration_ops_per_sec")
    cur_scenarios = current["scenarios"]
    for name, base in baseline["scenarios"].items():
        cur = cur_scenarios.get(name)
        if cur is None:
            continue
        base_eps = float(base["events_per_sec"])
        cur_eps = float(cur["events_per_sec"])
        normalized = None
        if cur_cal and base_cal:
            normalized = (cur_eps / float(cur_cal)) / (
                base_eps / float(base_cal)
            )
        deltas.append(Delta(
            name=name,
            baseline_eps=base_eps,
            current_eps=cur_eps,
            raw_ratio=cur_eps / base_eps if base_eps else float("inf"),
            normalized_ratio=normalized,
        ))
    return deltas


def delta_table(deltas: Sequence[Delta]) -> str:
    """Render deltas as an aligned text table."""
    header = (
        f"{'scenario':<18}{'baseline ev/s':>15}{'current ev/s':>15}"
        f"{'raw':>9}{'normalized':>12}"
    )
    lines = [header, "-" * len(header)]
    for delta in deltas:
        norm = (
            f"{(delta.normalized_ratio - 1) * 100:+.1f}%"
            if delta.normalized_ratio is not None
            else "n/a"
        )
        lines.append(
            f"{delta.name:<18}{delta.baseline_eps:>15.0f}"
            f"{delta.current_eps:>15.0f}{delta.raw_pct:>+8.1f}%"
            f"{norm:>12}"
        )
    return "\n".join(lines)


def check_regressions(
    deltas: Sequence[Delta],
    max_regression: float = 0.30,
    normalized: bool = True,
) -> List[str]:
    """Failure messages for scenarios slower than the tolerance.

    ``max_regression=0.30`` fails anything below 70% of the baseline's
    (normalized) events/sec.  Returns an empty list when all pass.
    """
    if not 0.0 < max_regression < 1.0:
        raise ConfigurationError("max_regression must be in (0, 1)")
    failures: List[str] = []
    floor = 1.0 - max_regression
    for delta in deltas:
        ratio = (
            delta.normalized_ratio
            if normalized and delta.normalized_ratio is not None
            else delta.raw_ratio
        )
        if ratio < floor:
            kind = (
                "normalized"
                if normalized and delta.normalized_ratio is not None
                else "raw"
            )
            failures.append(
                f"{delta.name}: {kind} events/sec at "
                f"{ratio:.2f}x of baseline (floor {floor:.2f}x)"
            )
    return failures
