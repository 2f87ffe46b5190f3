"""The matching rules of ``tools/check_reach.py``, on a planted package.

The full product run (about 15 s) stays out of tier-1; CI runs it in
the ``paper-claims`` job.  Here a small package is planted, run under
the same profile hooks, and matched the same way: an unreached
function is reported and a reached one is not, a decorated or nested
function resolves by its first line, and an allow-list entry that
names nothing, gives no kind of reason, or is a product path naming no
ROADMAP item 2 cell, fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "check_reach", os.path.join(ROOT, "tools", "check_reach.py"))
check_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_reach)

PLANTED = {
    "reachpkg/__init__.py": "",
    "reachpkg/mod.py": (
        "import functools\n"
        "\n"
        "def reached():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "\n"
        "def unreached():\n"
        "    def never():\n"
        "        return 2\n"
        "    return never()\n"
        "\n"
        "@functools.cache\n"
        "def decorated():\n"
        "    return 3\n"
        "\n"
        "@functools.cache\n"
        "\n"
        "def decorated_unreached():\n"
        "    return 4\n"
        "\n"
        "class Host:\n"
        "    @property\n"
        "    def name(self):\n"
        "        return 'h'\n"
        "\n"
        "    def idle(self):\n"
        "        return None\n"
        "\n"
        "def main():\n"
        "    return reached(), decorated(), Host().name\n"
    ),
}

UNREACHED = [
    "reachpkg/mod.py:Host.idle",
    "reachpkg/mod.py:decorated_unreached",
    "reachpkg/mod.py:unreached",
    "reachpkg/mod.py:unreached.never",
]


@pytest.fixture
def planted(tmp_path, monkeypatch):
    for path, source in PLANTED.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield str(tmp_path / "reachpkg")
    for name in [name for name in sys.modules if name.startswith("reachpkg")]:
        del sys.modules[name]


def test_an_unreached_function_is_found(planted):
    module = importlib.import_module("reachpkg.mod")
    codes = check_reach.entered({"main": module.main})
    defined = check_reach.definitions(check_reach.parse(planted))
    # A decorated function is keyed on its first decorator's line, a
    # nested one by its qualname under the function holding it.
    assert defined[("mod.py", 13)] == "mod.py:decorated"
    assert defined[("mod.py", 17)] == "mod.py:decorated_unreached"
    assert defined[("mod.py", 9)] == "mod.py:unreached.never"
    missing = check_reach.unreached(
        defined, check_reach.entered_keys(codes, planted))
    assert ["reachpkg/" + name for name in missing] == UNREACHED


def test_the_allow_list_is_checked_both_ways():
    missing = ["a.py:kept", "a.py:new"]
    allowed = {
        "a.py:kept": "debug helper: repr",
        "a.py:gone": "public API: docs/api-tour.md",
    }
    assert check_reach.check(missing, allowed) == [
        "unreached with no reason: a.py:new",
        "stale allow-list entry: a.py:gone",
    ]
    assert check_reach.check(["a.py:kept"], {"a.py:kept": "kept"}) == [
        f"reason without a kind {check_reach.KINDS}: a.py:kept",
    ]
    assert check_reach.check(["a.py:kept"], {
        "a.py:kept": "product path: no spec reaches it"}) == [
        "product path without its ROADMAP item 2 cell: a.py:kept",
    ]


def test_every_allowance_names_a_function_and_a_reason():
    """The static half of the full check: an entry left behind by a
    deleted or renamed function fails here, before the product run."""
    defined = set(check_reach.definitions(
        check_reach.parse(check_reach.REPRO)).values())
    assert sorted(set(check_reach.ALLOWED) - defined) == []
    assert check_reach.check(sorted(check_reach.ALLOWED),
                             check_reach.ALLOWED) == []
