"""A subcommand handler hands the running system no closure of its own.

``repro <command>`` and a scenario run share their wiring: a run is
built by :func:`repro.workload.build` and ended by
:func:`repro.workload.finish`.
A function nested in a handler under ``src/repro/commands`` is the
shape a private copy of that code takes (a ``send_one`` handed to a
:class:`~repro.sim.PoissonProcess`), and a closure the scheduler holds
does not follow a deep-copied (forked) system.  The scan fails on any
nested function outside :data:`ALLOWED`, and on an allowed one that is
used as anything but the callee of a call.
"""

from __future__ import annotations

import ast
import os

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
COMMANDS = os.path.join(SRC, "repro", "commands")

#: nested functions a handler may define, with the reason:
#: ``module:outer.name`` under ``src/repro/commands``.
ALLOWED = {
    "compare.py:run.row": (
        "prints one comparison row and counts a mismatch; called in "
        "place, never handed to the simulation"
    ),
    "compare.py:run.fresh": (
        "builds the Simulation for one comparison; called in place, "
        "never handed to the simulation"
    ),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _handed_on(outer: ast.AST, name: str) -> bool:
    """Whether ``name`` is read in ``outer`` other than as a callee:
    passed, stored, returned or wrapped."""
    callees = {
        id(node.func) for node in ast.walk(outer)
        if isinstance(node, ast.Call)
    }
    return any(
        isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load) and id(node) not in callees
        for node in ast.walk(outer)
    )


def nested_functions(root: str) -> list:
    """``(module:outer.name, handed on)`` of every function nested in a
    top-level function of a module directly under ``root``."""
    found = []
    for module in sorted(os.listdir(root)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(root, module), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=module)
        for outer in tree.body:
            if not isinstance(outer, FUNCTIONS):
                continue
            for node in ast.walk(outer):
                if isinstance(node, FUNCTIONS) and node is not outer:
                    found.append((f"{module}:{outer.name}.{node.name}",
                                  _handed_on(outer, node.name)))
    return found


def offenders(root: str, allowed) -> list:
    return [name for name, handed_on in nested_functions(root)
            if handed_on or name not in allowed]


def test_no_handler_hands_on_a_closure():
    assert os.path.isfile(os.path.join(COMMANDS, "multicast.py"))
    assert offenders(COMMANDS, ALLOWED) == []
    # Every allowance is still needed: a stale entry could later let a
    # new closure of the same name through.
    assert sorted(name for name, _ in nested_functions(COMMANDS)) == sorted(
        ALLOWED)


def test_the_scan_finds_a_traffic_closure(tmp_path):
    (tmp_path / "multicast.py").write_text(
        "def run(args, emit):\n"
        "    sent = [0]\n"
        "    def send_one():\n"
        "        sent[0] += 1\n"
        "    traffic = PoissonProcess(sim.scheduler, 0.05, send_one)\n"
        "    def report(line):\n"
        "        emit(line)\n"
        "    report('done')\n"
        "    def stored():\n"
        "        pass\n"
        "    hooks = [stored]\n"
    )
    allowed = {"multicast.py:run.report", "multicast.py:run.stored"}
    assert nested_functions(str(tmp_path)) == [
        ("multicast.py:run.send_one", True),
        ("multicast.py:run.report", False),
        ("multicast.py:run.stored", True),
    ]
    assert offenders(str(tmp_path), allowed) == [
        "multicast.py:run.send_one", "multicast.py:run.stored"]
