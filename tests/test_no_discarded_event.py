"""Fire-and-forget work in ``repro`` is posted, never scheduled.

``Scheduler.schedule`` and ``schedule_at`` build an :class:`Event`
handle so the caller can cancel the work later; ``post`` and
``post_at`` take the same ``seq`` from the same stream and fire in the
same order, but build no handle.  A call that throws the handle away
paid for an object nobody reads, once per handoff, probe or timer.
The scan parses every module under ``src/repro`` and fails on any
``schedule``/``schedule_at`` call used as a bare statement.
"""

from __future__ import annotations

import ast
import os

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

REPRO = os.path.join(SRC, "repro")

#: scheduler methods whose result is the cancellable handle.
HANDLE_METHODS = ("schedule", "schedule_at")


def discarded_in(path: str, root: str) -> list:
    """``path:line`` (relative to ``root``) of every statement that
    calls ``.schedule``/``.schedule_at`` and drops the result."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    return [
        f"{os.path.relpath(path, root)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in HANDLE_METHODS
    ]


def discarded_under(root: str) -> list:
    """``path:line`` of every discarded handle in the modules under
    ``root``."""
    found = []
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                found.extend(discarded_in(os.path.join(directory, name),
                                          root))
    return found


def test_repro_discards_no_event_handle():
    assert os.path.isfile(os.path.join(REPRO, "hosts", "mh.py"))
    assert discarded_under(REPRO) == []


def test_the_scan_finds_a_discarded_handle_and_spares_a_kept_one(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(
        "def wire(self, scheduler):\n"
        "    self._timer = scheduler.schedule(1.0, self.fire)\n"
        "    scheduler.post(2.0, self.fire)\n"
        "    if self.late:\n"
        "        self.network.scheduler.schedule_at(\n"
        "            9.0, self.fire)\n"
    )
    assert discarded_under(str(tmp_path)) == [
        os.path.join("sub", "mod.py:5")
    ]
