#!/usr/bin/env python3
"""Execute every example in ``docs/scaling.md`` and check its output.

The scaling guide promises its snippets are copy-pasteable.  This
script extracts each fenced block and runs it: ``python -m repro ...``
lines from shell fences go through :func:`repro.cli.main` in-process,
and ``python`` fences are executed as scripts.  When the fence right
after a command block is that command's printed output, its
deterministic lines (:data:`CHECKED`) must be exactly what the last
command of the block printed.  Exits 1 on the first failing example or
stale output line.  The CI ``docs`` job runs this, so the guide cannot
drift from the code it documents.
"""

from __future__ import annotations

import os
import re
import shlex
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GUIDE = os.path.join(REPO, "docs", "scaling.md")

_FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)

#: output lines, by label, that a run reproduces exactly; the rest
#: (``peak RSS`` above all) vary from run to run and stay informational.
CHECKED = ("population", "array state", "active set", "events")


def repro_commands(block: str) -> list:
    """The ``python -m repro`` command lines of a shell fence."""
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines
            if line.startswith(("python -m repro",
                                "PYTHONPATH=src python -m repro"))]


def stale_lines(block: str, printed: list) -> tuple:
    """``(checked, stale)``: how many :data:`CHECKED` lines ``block``
    shows, and those of them that ``printed`` does not contain."""
    printed = {line.rstrip() for line in printed}
    shown = [line.rstrip() for line in block.splitlines()
             if line.partition(":")[0].strip() in CHECKED]
    return len(shown), [line for line in shown if line not in printed]


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.cli import main as cli_main

    with open(GUIDE, encoding="utf-8") as fh:
        text = fh.read()
    blocks = _FENCE_RE.findall(text)
    ran = checked = 0
    for index, (lang, block) in enumerate(blocks):
        if lang == "python":
            print(f"[scaling.md] python block ({len(block)} chars)")
            exec(compile(block, GUIDE, "exec"), {"__name__": "example"})
            ran += 1
            continue
        printed = None
        for line in repro_commands(block):
            argv = shlex.split(line)
            argv = argv[argv.index("repro") + 1:]
            print(f"[scaling.md] repro {' '.join(argv)}")
            emitted: list = []
            code = cli_main(argv, emit=emitted.append)
            if code != 0:
                print(f"example exited {code}: {line}", file=sys.stderr)
                return 1
            printed = "\n".join(emitted).splitlines()
            ran += 1
        if printed is None or index + 1 == len(blocks):
            continue
        shown, stale = stale_lines(blocks[index + 1][1], printed)
        for line in stale:
            print(f"stale output in docs/scaling.md: {line!r} is not "
                  f"what the command above it prints", file=sys.stderr)
        if stale:
            return 1
        checked += shown
    print(f"ran {ran} examples from docs/scaling.md, "
          f"{checked} output lines match")
    return 0 if ran and checked else 1


if __name__ == "__main__":
    sys.exit(main())
