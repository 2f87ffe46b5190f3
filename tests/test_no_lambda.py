"""Callbacks in the listed packages are named, never lambdas.

Handlers, listeners, retries and miss callbacks are wired as bound
methods or ``functools.partial`` objects: a partial's function and
arguments can be inspected (and, one day, copied with a forked
simulation), a lambda's closure cannot.  The test parses every module
of each package in :data:`LAMBDA_FREE` and fails on the first
``lambda`` it finds; a package joins the tuple once its last lambda is
gone.
"""

from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: packages that contain no ``lambda`` at all.
LAMBDA_FREE = (
    "repro.groups", "repro.multicast", "repro.mutex", "repro.net",
    "repro.proxy",
)


def lambdas_under(root: str) -> list:
    """``path:line`` of every lambda in the modules under ``root``."""
    found = []
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            found.extend(
                f"{os.path.relpath(path, root)}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Lambda)
            )
    return found


@pytest.mark.parametrize("package", LAMBDA_FREE)
def test_package_has_no_lambda(package):
    root = os.path.join(SRC, *package.split("."))
    assert os.path.isdir(root)
    assert lambdas_under(root) == []


def test_the_scan_finds_a_nested_lambda(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(
        "def wire(host, node):\n"
        "    host.register_handler('k', lambda m: node.on(m.payload))\n"
    )
    assert lambdas_under(str(tmp_path)) == [os.path.join("sub", "mod.py:2")]
