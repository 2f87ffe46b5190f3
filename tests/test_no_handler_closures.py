"""A subcommand handler hands the running system no closure of its own.

A function nested in a handler under ``src/repro/commands`` is the
shape a private copy of the shared run wiring takes (a ``send_one``
handed to a :class:`~repro.sim.PoissonProcess`), and a closure the
scheduler holds does not follow a forked system.  The closure rules of
``tests/test_source_rules.py``, restricted to ``commands/`` on the same
one parse: nothing there is handed on, and what is called in place is
exactly the ``commands/`` entries of
:data:`~test_source_rules.CALL_LOCAL`.
"""

from __future__ import annotations

from test_source_rules import CALL_LOCAL, call_local, handed_on, repro_trees


def test_no_handler_hands_on_a_closure():
    trees = {path: tree for path, tree in repro_trees().items()
             if path.startswith("commands/")}
    assert "commands/multicast.py" in trees
    assert handed_on(trees) == []
    assert sorted(call_local(trees)) == sorted(
        entry for entry in CALL_LOCAL if entry.startswith("commands/"))
