"""Plain-text renderings of metric series (terminal "figures").

The library is dependency-free, so figures are ASCII: sparklines for
time series and horizontal bar charts for per-scope breakdowns.  Used
by the examples and handy in any terminal session.
Figures are drawn in the paper's cost currency (C_fixed / C_wireless / C_search).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 0) -> str:
    """Render a sequence as a one-line ASCII sparkline.

    ``width`` > 0 resamples the series to that many characters
    (bucket means); 0 keeps one character per value.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if width and width > 0 and len(values) != width:
        values = _resample(values, width)
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return _SPARK_LEVELS[1] * len(values)
    chars = []
    top = len(_SPARK_LEVELS) - 1
    for value in values:
        level = 1 + int((value - low) / span * (top - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def _resample(values: List[float], width: int) -> List[float]:
    buckets: List[List[float]] = [[] for _ in range(width)]
    n = len(values)
    for index, value in enumerate(values):
        buckets[min(index * width // n, width - 1)].append(value)
    resampled = []
    previous = values[0]
    for bucket in buckets:
        if bucket:
            previous = sum(bucket) / len(bucket)
        resampled.append(previous)
    return resampled


def bar_chart(
    data: Dict[str, float],
    width: int = 40,
    sort: bool = True,
) -> str:
    """Render a label -> value mapping as horizontal ASCII bars."""
    if width <= 0:
        raise ConfigurationError("width must be positive")
    if not data:
        return ""
    items: Iterable[Tuple[str, float]] = data.items()
    if sort:
        items = sorted(items, key=itemgetter(1), reverse=True)
    items = list(items)
    peak = max(value for _, value in items)
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        length = 0 if peak == 0 else int(round(value / peak * width))
        bar = "#" * length
        lines.append(
            f"{label.ljust(label_width)}  {bar:<{width}}  {value:,.0f}"
        )
    return "\n".join(lines)


def fault_summary(snapshot, width: int = 40) -> str:
    """Render a :class:`MetricsSnapshot`'s fault counters as bars.

    Includes a recovery-time summary line when the snapshot recorded
    completed MSS-crash recoveries.  Returns ``""`` for fault-free
    snapshots, so callers can print unconditionally.
    """
    parts = []
    if snapshot.faults:
        parts.append(
            bar_chart(
                {name: float(count) for name, count in
                 snapshot.faults.items()},
                width=width,
            )
        )
    times = snapshot.recovery_times
    if times:
        parts.append(
            f"recoveries: {len(times)}  "
            f"mean {sum(times) / len(times):.2f}  "
            f"max {max(times):.2f}"
        )
    return "\n".join(parts)


def cost_sparklines(
    timeline_collector,
    cost_model,
    bucket: float,
    scopes: Sequence[str],
    width: int = 50,
) -> str:
    """One labelled sparkline per scope from a TimelineCollector."""
    rows = []
    label_width = max((len(s) for s in scopes), default=0)
    for scope in scopes:
        series = timeline_collector.bucketed_cost(
            cost_model, bucket, scope
        )
        if not series:
            rows.append(f"{scope.ljust(label_width)}  (no traffic)")
            continue
        # Expand to a dense series (zero-filled gaps).
        last_bucket = int(series[-1][0] // bucket)
        dense = [0.0] * (last_bucket + 1)
        for start, cost in series:
            dense[int(start // bucket)] = cost
        total = sum(cost for _, cost in series)
        rows.append(
            f"{scope.ljust(label_width)}  "
            f"{sparkline(dense, width)}  {total:,.0f}"
        )
    return "\n".join(rows)
