"""No function nested in a function of ``repro`` outlives its call.

The ``handed_on`` and ``call_local`` rules of
``tests/test_source_rules.py`` together, on the same one parse: every
nested definition is either handed on with a reason in
:data:`~test_source_rules.HANDED_ON` or called in place with a reason
in :data:`~test_source_rules.CALL_LOCAL`, and neither table holds a
stale entry.
"""

from __future__ import annotations

from test_source_rules import (CALL_LOCAL, HANDED_ON, call_local, handed_on,
                               repro_trees)


def test_no_nested_definition_outlives_its_call():
    trees = repro_trees()
    assert "trace/events.py" in trees
    assert sorted(handed_on(trees)) == sorted(HANDED_ON)
    assert sorted(call_local(trees)) == sorted(CALL_LOCAL)
