"""The group-strategy, proxy-policy and search names live in one table.

:data:`repro.workload.GROUP_STRATEGIES`,
:data:`repro.workload.PROXY_POLICIES` and :data:`repro.workload.SEARCHES`
are the names ``repro groups --strategy``, ``repro proxy --policy`` and
``--search`` offer, the names a scenario spec accepts (its workload's
``strategy`` and ``policy``, its ``search``), and the names the
workload builder and ``Simulation(search=...)`` resolve.  These tests
hold the three to one set and check that each refuses a name outside
it; ``tests/test_source_rules.py`` (``name_table_copy``) fails on a
second copy of any table in the package.
"""

from __future__ import annotations

import argparse

import pytest

import repro.groups
import repro.net
import repro.proxy
from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.scenario import load_spec
from repro.workload import (
    GROUP_STRATEGIES,
    PROXY_POLICIES,
    SEARCHES,
    group_strategy,
    proxy_policy,
    search_protocol,
)

#: (CLI command, flag, spec key, table, resolver, package); a key is
#: read under a workload of the command's kind unless it is a top-level
#: spec key (:data:`TOP_LEVEL`).
TABLES = [
    ("groups", "--strategy", "strategy", GROUP_STRATEGIES, group_strategy,
     repro.groups),
    ("proxy", "--policy", "policy", PROXY_POLICIES, proxy_policy,
     repro.proxy),
    ("mutex", "--search", "search", SEARCHES, search_protocol, repro.net),
]
TOP_LEVEL = {"search"}


def cli_choices(command: str, flag: str) -> set:
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    option = next(action for action in commands.choices[command]._actions
                  if flag in action.option_strings)
    return set(option.choices)


def spec_accepts(kind: str, key: str, name: str) -> bool:
    if key in TOP_LEVEL:
        data, field = {"name": "t", key: name}, key
    else:
        data = {"name": "t", "workload": {"kind": kind, key: name}}
        field = f"workload.{key}"
    try:
        load_spec(data)
    except ConfigurationError as exc:
        assert field in str(exc)
        return False
    return True


@pytest.mark.parametrize("command, flag, key, table, resolve, package",
                         TABLES)
def test_cli_spec_and_builder_offer_the_same_names(command, flag, key,
                                                   table, resolve,
                                                   package):
    offered = cli_choices(command, flag)
    assert offered == set(table)
    candidates = offered | {"nope", "Fixed", "location-view"}
    assert {name for name in candidates
            if spec_accepts(command, key, name)} == offered
    for name in offered:
        assert resolve(name) is getattr(package, table[name])


@pytest.mark.parametrize("command, flag, key, table, resolve, package",
                         TABLES)
def test_an_unknown_name_is_refused_by_all_three(command, flag, key, table,
                                                 resolve, package, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, flag, "nope"])
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert not spec_accepts(command, key, "nope")
    with pytest.raises(ConfigurationError, match="unknown .* 'nope'"):
        resolve("nope")
