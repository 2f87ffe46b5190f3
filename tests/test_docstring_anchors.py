"""Every public module must say where in the paper it comes from.

``tools/check_docstrings.py`` checks that each module docstring has a
source anchor (a paper section, a ROADMAP item, a citation tag); the
CI ``docs`` job runs it over ``src/repro``.  ``tests/test_source_rules.py``
runs the same ``check_tree`` on its one parse of ``src/repro``
(``unanchored_module``); these tests drive the script's own walk.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_checker_flags_a_bare_module(tmp_path):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "anchored.py").write_text(
        '"""Implements the paper\'s Section 2 protocol."""\n'
    )
    (bad / "bare.py").write_text('"""No anchor here."""\n')
    (bad / "naked.py").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "check_docstrings.py"),
         "--root", str(bad)],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "bare.py" in proc.stdout
    assert "naked.py" in proc.stdout
    assert "anchored.py" not in proc.stdout


def test_perf_critical_modules_are_pinned_in_the_checker():
    """The scheduler and the monitor hub are named in REQUIRED_MODULES:
    moving one without updating the lint fails the docs job."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_docstrings",
        os.path.join(REPO, "tools", "check_docstrings.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    required = {os.path.basename(m) for m in mod.REQUIRED_MODULES}
    assert "scheduler.py" in required
    assert "hub.py" in required
    for suffix in mod.REQUIRED_MODULES:
        assert os.path.exists(os.path.join(REPO, "src", "repro", suffix))
