"""The package declares only what CI tests."""

from __future__ import annotations

import os
import re
import tomllib

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_requires_python_floor_is_the_lowest_ci_python():
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
        floor = tomllib.load(handle)["project"]["requires-python"]
    ci = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
    with open(ci, encoding="utf-8") as handle:
        versions = re.findall(r"python-version:\s*[\"']?([0-9.]+)",
                              handle.read())
    assert versions, "no python-version in the CI workflow"
    assert floor == f">={min(versions, key=_version)}"
