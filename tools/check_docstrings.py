#!/usr/bin/env python3
"""Check that every public module in ``src/repro`` is anchored.

Each module docstring must say *where it comes from*: a paper section
("Section 3"), a ROADMAP item, a citation tag ("[1]"), or at least the
word "paper"/"ICDCS".  That one line is what lets a reader map code to
the source material without spelunking git history — the same promise
the walkthrough docs make, enforced at the module level.

Usage: python tools/check_docstrings.py [--root src/repro]
Exits 1 listing every module that is missing a docstring or an anchor.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys

#: what counts as an anchor to the source material.
ANCHOR_RE = re.compile(
    r"(Section\s*\d|ROADMAP|paper|ICDCS|\[\d+\])", re.IGNORECASE
)

#: modules the perf arc leans on hardest; the walk must find and pass
#: every one of these, so a rename or move cannot silently drop the
#: scheduler or the monitor hub out of the lint.
REQUIRED_MODULES = (
    os.path.join("sim", "scheduler.py"),      # the heap event queue
    os.path.join("monitor", "hub.py"),        # monitor dispatch + drain
)


def iter_modules(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def check_module(path: str):
    """Return a problem string for ``path``, or None when it passes."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:  # pragma: no cover - tier-1 would fail
        return f"does not parse: {exc}"
    return check_tree(tree)


def check_tree(tree: ast.Module):
    """Return a problem string for a parsed module, or None when it
    passes."""
    doc = ast.get_docstring(tree)
    if not doc:
        return "missing module docstring"
    if not ANCHOR_RE.search(doc):
        return ("docstring lacks a source anchor "
                "(Section N / ROADMAP / paper / ICDCS / [n])")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.join("src", "repro"))
    args = parser.parse_args(argv)
    problems = []
    checked = 0
    seen = set()
    for path in iter_modules(args.root):
        checked += 1
        seen.add(path)
        problem = check_module(path)
        if problem:
            problems.append((path, problem))
    if os.path.normpath(args.root) == os.path.join("src", "repro"):
        for suffix in REQUIRED_MODULES:
            if not any(path.endswith(suffix) for path in seen):
                problems.append((
                    os.path.join(args.root, suffix),
                    "required module not found by the walk",
                ))
    for path, problem in problems:
        print(f"{path}: {problem}")
    print(f"checked {checked} modules: {len(problems)} unanchored")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
