"""Rates, ticks, intervals and counts must be finite and in range.

An infinite rate fired forever at one instant (``repro mutex
--request-rate inf`` and ``--move-rate inf`` never returned), a NaN one
stopped the run with an unlocated ``negative delay: nan``, and a
negative move rate or ``scale --n-active`` ran silently (so did a churn
fraction above 1, and a NaN one died in a traceback).  Each flag is
now a usage error naming it, and each constructor behind a flag raises
a :class:`ConfigurationError` naming its argument.  The CLI cases parse
first, so a parser that accepts the value fails the test before the
command could run.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.mobility import DisconnectionModel, UniformMobility
from repro.recovery import PeriodicPolicy
from repro.scale import CrowdChurn
from repro.sim import PoissonProcess, Scheduler
from repro.workload import MutexWorkload
from repro.workload.generators import (
    GroupMessagingWorkload,
    LetterWorkload,
    MulticastWorkload,
)

BAD_FLAGS = [
    ["mutex", "--request-rate", "inf"],
    ["mutex", "--request-rate", "nan"],
    ["mutex", "--move-rate", "inf"],
    ["mutex", "--move-rate", "nan"],
    ["mutex", "--move-rate", "-1"],
    ["mutex", "--recovery", "periodic:nan"],
    ["mutex", "--recovery", "periodic:inf"],
    ["mutex", "--n-mh", "-1"],
    ["mutex", "--cs-duration", "nan"],
    ["mutex", "--cs-duration", "inf"],
    ["groups", "--message-rate", "nan"],
    ["groups", "--group-size", "-1"],
    ["proxy", "--message-rate", "inf"],
    ["multicast", "--message-rate", "nan"],
    ["monitor", "--health-interval", "nan"],
    ["monitor", "--request-deadline", "inf"],
    ["scale", "--tick", "nan"],
    ["scale", "--tick", "inf"],
    ["scale", "--n-active", "-1"],
    ["scale", "--move-fraction", "nan"],
    ["scale", "--disconnect-fraction", "-0.1"],
    ["scale", "--reconnect-fraction", "5"],
    ["serve", "--request-rate", "inf"],
    ["serve", "--move-rate", "nan"],
    ["serve", "--linger", "inf"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=" ".join)
def test_a_bad_flag_is_a_usage_error_naming_it(argv, capsys):
    flag = argv[1]
    with pytest.raises(SystemExit) as parsed:
        build_parser().parse_args(argv)
    assert parsed.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as ran:
        main(argv)
    assert ran.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def _scheduler():
    return Scheduler()


#: argument name -> a constructor taking the bad value.
CONSTRUCTORS = {
    "PoissonProcess.rate": lambda value: PoissonProcess(
        _scheduler(), value, print, random.Random(1)),
    "MutexWorkload.request_rate": lambda value: MutexWorkload(
        None, None, [], value, random.Random(1)),
    "GroupMessagingWorkload.message_rate": (
        lambda value: GroupMessagingWorkload(None, None, value,
                                             random.Random(1))),
    "MulticastWorkload.message_rate": lambda value: MulticastWorkload(
        None, None, value, random.Random(1), random.Random(2)),
    "LetterWorkload.message_rate": lambda value: LetterWorkload(
        None, None, [], value, random.Random(1), random.Random(2)),
    "UniformMobility.move_rate": lambda value: UniformMobility(
        None, [], value, random.Random(1)),
    "DisconnectionModel.downtime": lambda value: DisconnectionModel(
        None, [], 0.1, value, random.Random(1)),
    "CrowdChurn.tick": lambda value: CrowdChurn(None, _scheduler(),
                                                tick=value),
    "PeriodicPolicy.interval": PeriodicPolicy,
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_a_constructor_refuses_a_non_finite_value(name, value):
    with pytest.raises(ConfigurationError, match=name):
        CONSTRUCTORS[name](value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_set_rate_refuses_a_non_finite_rate(value):
    process = PoissonProcess(_scheduler(), 1.0, print, random.Random(1))
    with pytest.raises(ConfigurationError, match="PoissonProcess.rate"):
        process.set_rate(value)
