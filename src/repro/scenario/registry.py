"""The scenario registry and the built-in pack.

A :class:`ScenarioRegistry` maps names to validated
:class:`~repro.scenario.spec.ScenarioSpec` objects and answers
tag-filtered queries; :func:`builtin_registry` loads the shipped specs
exactly once per process: the chaos pack from
``src/repro/scenario/pack/*.json`` and the seven scenarios of the paper
walkthroughs (tag ``walkthrough``) from
``src/repro/scenario/walkthroughs/*.json``.
Part of the declarative chaos-scenario platform (ROADMAP chaos arc).
"""

from __future__ import annotations

import glob
import os
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.scenario.loader import load_file
from repro.scenario.spec import ScenarioSpec

__all__ = ["ScenarioRegistry", "builtin_registry", "pack_dir"]


def pack_dir() -> str:
    """Directory holding the chaos pack's scenario JSON files."""
    return os.path.join(os.path.dirname(__file__), "pack")


class ScenarioRegistry:
    """A named, tag-queryable collection of scenario specs."""

    def __init__(self, specs: Iterable[ScenarioSpec] = ()) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ScenarioSpec) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(
                f"duplicate scenario name {spec.name!r}"
            )
        self._specs[spec.name] = spec

    def get(self, name: str) -> ScenarioSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; options: "
                f"{', '.join(self.names())}"
            ) from None

    def names(self, tag: Optional[str] = None) -> List[str]:
        """Scenario names, optionally restricted to one tag."""
        return sorted(
            name
            for name, spec in self._specs.items()
            if tag is None or spec.has_tag(tag)
        )

    def specs(self, tag: Optional[str] = None) -> List[ScenarioSpec]:
        """Specs in name order, optionally restricted to one tag."""
        return [self._specs[name] for name in self.names(tag)]

    def tags(self) -> List[str]:
        """Every tag used by at least one scenario."""
        out = set()
        for spec in self._specs.values():
            out.update(spec.tags)
        return sorted(out)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs


_BUILTIN: Optional[ScenarioRegistry] = None


def builtin_registry() -> ScenarioRegistry:
    """The shipped pack and walkthrough specs, loaded once per
    process."""
    global _BUILTIN
    if _BUILTIN is None:
        registry = ScenarioRegistry()
        walkthroughs = os.path.join(os.path.dirname(__file__),
                                    "walkthroughs")
        for directory in (pack_dir(), walkthroughs):
            for path in sorted(glob.glob(os.path.join(directory,
                                                      "*.json"))):
                registry.register(load_file(path))
        _BUILTIN = registry
    return _BUILTIN
