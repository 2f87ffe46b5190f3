"""Every listener registry in ``repro`` has a caller in ``repro``.

An ``add_*_listener`` method is a hook: a list kept on the object, a
loop over it at each event, and a docstring promising a callback.  If
no module of ``repro`` registers with it, the hook serves only its own
unit test and every event pays for the loop.  The scan parses every
module under ``src/repro``, collects the ``add_*_listener`` methods it
defines and the attribute calls it makes, and fails on a hook that
nothing calls.
"""

from __future__ import annotations

import ast
import os
import re

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

REPRO = os.path.join(SRC, "repro")

HOOK = re.compile(r"add_\w+_listener")


def _modules(root: str):
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), filename=path)


def unused_hooks(root: str) -> list:
    """``path:line name`` of every ``add_*_listener`` method defined
    under ``root`` that no module under ``root`` calls."""
    defined = []
    called = set()
    for path, tree in _modules(root):
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and HOOK.fullmatch(node.name)):
                defined.append((os.path.relpath(path, root), node.lineno,
                                node.name))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                called.add(node.func.attr)
    return [f"{path}:{line} {name}" for path, line, name in defined
            if name not in called]


def test_every_listener_registry_has_a_caller():
    assert unused_hooks(REPRO) == []


def test_the_scan_finds_an_unused_hook(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "host.py").write_text(
        "class Host:\n"
        "    def add_join_listener(self, listener):\n"
        "        self._join.append(listener)\n"
        "\n"
        "    def add_leave_listener(self, listener):\n"
        "        self._leave.append(listener)\n"
    )
    (tmp_path / "user.py").write_text(
        "def wire(host, protocol):\n"
        "    host.add_join_listener(protocol.on_join)\n"
    )
    assert unused_hooks(str(tmp_path)) == [
        os.path.join("pkg", "host.py") + ":5 add_leave_listener"
    ]
