"""Render the walkthrough scenarios into Markdown walkthroughs.

Each page in ``docs/walkthroughs/`` is generated from one (or two)
traced runs of the builtin scenario specs tagged ``walkthrough``
(``src/repro/scenario/walkthroughs/*.json``): the spec's intro, a
Mermaid sequence diagram, a step-by-step event table with per-step cost
annotations, a cost summary priced in the paper's currency, and the
spec's notes filled in from the run's report.  The pages are checked in
and CI regenerates them, failing on any diff -- so this module (like
the scenarios) must be fully deterministic.

Entry points: :func:`render_all` returns ``{filename: content}``;
:func:`write_all` writes them to a directory (what
``tools/gen_walkthroughs.py`` calls); :data:`TOUR` is the scenarios in
page order.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.metrics.collector import Category
from repro.scenario import ScenarioResult, builtin_registry, run_scenario
from repro.trace.export import _CATEGORY_TAGS, to_mermaid

#: how every generated page begins (also what the CI diff-check greps
#: for to confirm pages were not hand-edited into unmarked files).
GENERATED_BANNER = (
    "<!-- Generated by tools/gen_walkthroughs.py; do not edit by hand.\n"
    "     Regenerate with:  PYTHONPATH=src python tools/gen_walkthroughs.py"
    " -->"
)

#: hard cap on step-table rows / diagram steps per run; longer traces
#: are truncated with an explicit count (never silently).
MAX_TABLE_ROWS = 70
MAX_DIAGRAM_STEPS = 60


def _fmt_time(t: float) -> str:
    return f"{t:g}"


def _fmt_detail(detail: Dict[str, object]) -> str:
    if not detail:
        return ""
    parts = [f"{key}={value!r}" for key, value in detail.items()]
    text = ", ".join(parts).replace("|", "\\|")
    return f"`{text}`"


def traced_run(name: str) -> ScenarioResult:
    """A traced run of the builtin scenario ``name`` at its own seed."""
    return run_scenario(builtin_registry().get(name), trace=True)


def _step_table(run: ScenarioResult,
                max_rows: int = MAX_TABLE_ROWS) -> str:
    """The step-by-step table: one row per trace event."""
    lines = [
        "| # | t | event | from | to | cost | detail |",
        "|---:|---:|---|---|---|---|---|",
    ]
    events = run.sim.tracer.events
    shown = 0
    for event in events:
        if shown >= max_rows:
            break
        cost = _CATEGORY_TAGS.get(event.category or "", "")
        lines.append(
            "| {id} | {t} | `{etype}` | {src} | {dst} | {cost} | {detail} |"
            .format(
                id=event.id,
                t=_fmt_time(event.time),
                etype=event.kind or event.etype,
                src=event.src or "",
                dst=event.dst or "",
                cost=cost,
                detail=_fmt_detail(dict(event.detail)),
            )
        )
        shown += 1
    remaining = len(events) - shown
    if remaining > 0:
        lines.append(
            f"| ... | | *{remaining} further events omitted "
            f"(full trace: `repro trace --scenario {run.spec.name} "
            f"--format jsonl`)* | | | | |"
        )
    return "\n".join(lines)


def _cost_summary(run: ScenarioResult) -> str:
    """Counts per category, priced with the simulation's cost model."""
    snap = run.sim.metrics.snapshot()
    model = run.sim.cost_model
    prices = {
        Category.FIXED: model.c_fixed,
        Category.WIRELESS: model.c_wireless,
        Category.SEARCH: model.c_search,
        Category.SEARCH_PROBE: model.c_fixed,
    }
    lines = [
        "| category | count | unit price | subtotal |",
        "|---|---:|---:|---:|",
    ]
    for category in Category:
        count = snap.total(category)
        if count == 0:
            continue
        symbol = _CATEGORY_TAGS[category.value]
        price = prices[category]
        lines.append(
            f"| {symbol} | {count} | {price:g} | {count * price:g} |"
        )
    lines.append(
        f"| **total** | | | **{snap.cost(model):g}** |"
    )
    parts = ["\n".join(lines)]
    parts.append(
        f"MH energy spent (wireless tx+rx at the hosts): "
        f"**{snap.energy()}** units."
    )
    if snap.faults:
        fault_lines = [
            "| fault event | count |",
            "|---|---:|",
        ]
        for name, count in sorted(snap.faults.items()):
            fault_lines.append(f"| `{name}` | {count} |")
        parts.append("\n".join(fault_lines))
    return "\n\n".join(parts)


def _run_section(
    run: ScenarioResult,
    heading_level: int = 2,
    max_diagram_steps: int = MAX_DIAGRAM_STEPS,
) -> str:
    """Diagram + step table + cost summary for one scenario run."""
    h = "#" * heading_level
    mermaid = to_mermaid(run.sim.tracer.events,
                         max_steps=max_diagram_steps)
    return "\n\n".join([
        f"{h} Sequence diagram",
        f"```mermaid\n{mermaid}\n```",
        f"{h} Step by step",
        _step_table(run),
        f"{h} Cost summary",
        _cost_summary(run),
        f"{h} Notes",
        "\n".join(f"- {note}" for note in run.notes),
    ])


def _page(title: str, intro: str, body: str) -> str:
    return "\n\n".join([GENERATED_BANNER, f"# {title}", intro, body]) + "\n"


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------


def page_l1_vs_l2() -> str:
    """The paper's central contrast: one access under L1, then L2."""
    l1 = traced_run("l1")
    l2 = traced_run("l2")
    snap1, snap2 = l1.sim.metrics.snapshot(), l2.sim.metrics.snapshot()
    model = l1.sim.cost_model
    compare = "\n".join([
        "| | L1 (at the MHs) | L2 (at the MSSs) |",
        "|---|---:|---:|",
        f"| fixed messages | {snap1.total(Category.FIXED)} "
        f"| {snap2.total(Category.FIXED)} |",
        f"| wireless messages | {snap1.total(Category.WIRELESS)} "
        f"| {snap2.total(Category.WIRELESS)} |",
        f"| searches | {snap1.total(Category.SEARCH)} "
        f"| {snap2.total(Category.SEARCH)} |",
        f"| total cost | {snap1.cost(model):g} | {snap2.cost(model):g} |",
        f"| MH energy | {snap1.energy()} | {snap2.energy()} |",
    ])
    intro = (
        "One critical-section access by `mh-0` in a system of M=3 "
        "support stations and N=3 mobile hosts, run twice: first with "
        "Lamport's algorithm executing *on the mobile hosts* (L1), "
        "then with the same algorithm executing *at the support "
        "stations* on the hosts' behalf (L2). This is the paper's "
        "Section 3 argument in one page: moving the algorithm to the "
        "fixed network turns O(N) expensive wireless/search messages "
        "into O(M) cheap fixed ones, and shrinks the MH's own share "
        "to three wireless messages.\n\n" + compare
    )
    body = "\n\n".join([
        f"## {l1.spec.title}",
        l1.spec.description,
        _run_section(l1, heading_level=3),
        f"## {l2.spec.title}",
        l2.spec.description,
        _run_section(l2, heading_level=3),
    ])
    return _page("Walkthrough: L1 vs L2", intro, body)


def _single_run_page(name: str) -> str:
    run = traced_run(name)
    return _page(f"Walkthrough: {run.spec.title}", run.spec.description,
                 _run_section(run))


#: filename -> the walkthrough scenarios the page runs, in index order.
PAGES: Dict[str, Tuple[str, ...]] = {
    "l1_vs_l2.md": ("l1", "l2"),
    "r2_token_list.md": ("r2_token_list",),
    "location_view_move.md": ("location_view_move",),
    "reliable_retransmit.md": ("reliable_retransmit",),
    "r2_crash_recovery.md": ("r2_crash_recovery",),
    "mh_crash_recovery.md": ("mh_crash_recovery",),
}

#: every walkthrough scenario in page order (``repro monitor``'s).
TOUR = tuple(name for names in PAGES.values() for name in names)

_INDEX_BLURBS = {
    "l1_vs_l2.md": (
        "the Section 3 argument in one page: the same mutex access "
        "run on the MHs (L1) and at the MSSs (L2), side by side"
    ),
    "r2_token_list.md": (
        "the R2'' token ring: token_list pruned on arrival and "
        "extended on every access, hop by hop"
    ),
    "location_view_move.md": (
        "LV(G) maintenance: a group send across the view, then a "
        "combined add+delete significant move"
    ),
    "reliable_retransmit.md": (
        "the reliable fixed-network channel recovering one "
        "deterministic loss: drop, timeout, retransmit, ack"
    ),
    "r2_crash_recovery.md": (
        "an MSS crash that swallows the token: orphaned MH, rejoin, "
        "request resubmission, epoch-guarded token regeneration"
    ),
    "mh_crash_recovery.md": (
        "a mobile host dies and recovers: the checkpoint meta rides "
        "the handoff, the fetch walks the trail, the payload is "
        "re-homed and restored over one wireless downlink"
    ),
}


def page_index() -> str:
    intro = (
        "Every page here is generated from a small deterministic "
        "simulation with [tracing](../metrics.md#trace-events) "
        "enabled: a Mermaid sequence diagram of the actual messages, "
        "a step-by-step event table with the paper's per-message cost "
        "annotations, and a priced cost summary. Regenerate with "
        "`PYTHONPATH=src python tools/gen_walkthroughs.py`; explore "
        "any scenario interactively with `repro trace --scenario "
        "<name> --format mermaid|jsonl|chrome|summary` "
        "(see [the CLI reference](../cli.md))."
    )
    items = "\n".join(
        f"- [{filename[:-3]}]({filename}) -- {_INDEX_BLURBS[filename]}"
        for filename in PAGES
    )
    return _page("Protocol walkthroughs", intro, items)


def render_all() -> Dict[str, str]:
    """All walkthrough pages (including the index) as filename -> text."""
    pages = {
        filename: (page_l1_vs_l2() if filename == "l1_vs_l2.md"
                   else _single_run_page(*names))
        for filename, names in PAGES.items()
    }
    pages["index.md"] = page_index()
    return pages


def write_all(out_dir: str) -> List[str]:
    """Write every page into ``out_dir``; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, content in sorted(render_all().items()):
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(path)
    return written
