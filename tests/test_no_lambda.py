"""Callbacks in ``repro`` are named, never lambdas.

The ``lambda`` rule of ``tests/test_source_rules.py``, reported for
each package of ``repro`` and for its top-level modules on the same
one parse, so a failure names the package that broke it.
"""

from __future__ import annotations

import os

import pytest

from test_source_rules import REPRO, lambdas, repro_trees

#: every package of ``repro``; none contains a ``lambda``.
LAMBDA_FREE = tuple(sorted(
    f"repro.{name}" for name in os.listdir(REPRO)
    if os.path.isfile(os.path.join(REPRO, name, "__init__.py"))
))


@pytest.mark.parametrize("package", LAMBDA_FREE)
def test_package_has_no_lambda(package):
    prefix = package.split(".", 1)[1] + "/"
    trees = {path: tree for path, tree in repro_trees().items()
             if path.startswith(prefix)}
    assert prefix + "__init__.py" in trees
    assert lambdas(trees) == []


def test_top_level_modules_have_no_lambda():
    trees = {path: tree for path, tree in repro_trees().items()
             if "/" not in path}
    assert "facade.py" in trees
    assert lambdas(trees) == []
