"""Loading and validating declarative scenario specs.

:func:`load_spec` turns a plain dict (parsed JSON/YAML, or written
inline in a test) into a validated :class:`~repro.scenario.spec.
ScenarioSpec`; :func:`load_file` reads one from disk.  Every validation
failure raises :class:`~repro.errors.ConfigurationError` with the
scenario name and the offending key in the message -- a scenario pack
is configuration, and configuration errors must point at the line to
fix, not at a traceback inside the runner.
Part of the declarative chaos-scenario platform (ROADMAP chaos arc).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.scenario.spec import (
    EVENT_KINDS,
    MOBILITY_KINDS,
    MUTEX_ALGORITHMS,
    WORKLOAD_KINDS,
    ScenarioSpec,
)

__all__ = ["load_spec", "load_file"]

_TOP_LEVEL_KEYS = {
    "name", "title", "description", "tags",
    "n_mss", "n_mh", "seed", "placement", "search",
    "duration", "settle",
    "workload", "mobility", "disconnects", "events",
    "faults", "monitors", "expect",
    # tolerated metadata for hand-written files
    "schema_version",
}

_GROUP_STRATEGIES = ("pure_search", "always_inform", "location_view")
_PROXY_POLICIES = ("fixed", "local", "adaptive")
_SEARCHES = ("abstract", "broadcast", "home-agent", "caching", "regional")
_PLACEMENTS = ("round_robin", "single_cell", "random")

_MONITOR_KEYS = {"request_deadline", "token_deadline", "health_interval"}
_EXPECT_KEYS = {
    "min_completed", "all_requests_served", "min_accesses",
    "min_deliveries", "min_sent", "min_faults", "max_gave_up",
}


class _Check:
    """Validation helpers that prefix every error with the scenario."""

    def __init__(self, name: str) -> None:
        self.name = name

    def fail(self, message: str) -> None:
        raise ConfigurationError(f"scenario {self.name!r}: {message}")

    def number(self, where: str, value, minimum=None,
               maximum=None, allow_none: bool = False):
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(f"{where} must be a number, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(f"{where} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            self.fail(f"{where} must be <= {maximum}, got {value}")
        return value

    def integer(self, where: str, value, minimum=None):
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{where} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(f"{where} must be >= {minimum}, got {value}")
        return value

    def boolean(self, where: str, value):
        if not isinstance(value, bool):
            self.fail(f"{where} must be a boolean, got {value!r}")
        return value

    def choice(self, where: str, value, options):
        if value not in options:
            self.fail(
                f"{where} must be one of {sorted(options)}, got {value!r}"
            )
        return value

    def mapping(self, where: str, value) -> Dict[str, Any]:
        if not isinstance(value, dict):
            self.fail(f"{where} must be an object, got "
                      f"{type(value).__name__}")
        return value

    def known_keys(self, where: str, value: Dict[str, Any], known) -> None:
        unknown = set(value) - set(known)
        if unknown:
            self.fail(
                f"{where} has unknown keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )


def _validate_workload(check: _Check, data: Dict[str, Any]) -> Dict:
    workload = dict(check.mapping("workload", data))
    kind = workload.get("kind", "none")
    check.choice("workload.kind", kind, WORKLOAD_KINDS)
    workload["kind"] = kind
    if kind == "mutex":
        check.known_keys("workload", workload, {
            "kind", "algorithm", "request_rate", "cs_duration",
            "token_timeout", "max_traversals", "malicious_mhs",
        })
        algorithm = workload.setdefault("algorithm", "L2")
        check.choice("workload.algorithm", algorithm, MUTEX_ALGORITHMS)
        rate = workload.get("request_rate")
        if algorithm in ("L1", "R1"):
            if rate is not None:
                check.fail(
                    f"workload.request_rate is not supported for "
                    f"{algorithm} (no completion hook); schedule "
                    f"explicit 'request' events instead"
                )
        else:
            check.number("workload.request_rate",
                         workload.setdefault("request_rate", 0.05),
                         minimum=1e-9)
        check.number("workload.cs_duration",
                     workload.setdefault("cs_duration", 1.0),
                     minimum=1e-9)
        check.number("workload.token_timeout",
                     workload.setdefault("token_timeout", 30.0),
                     minimum=1e-9)
        if workload.get("max_traversals") is not None:
            check.integer("workload.max_traversals",
                          workload["max_traversals"], minimum=1)
        malicious = workload.setdefault("malicious_mhs", [])
        if not isinstance(malicious, list):
            check.fail("workload.malicious_mhs must be a list of MH "
                       "indices")
        for index in malicious:
            check.integer("workload.malicious_mhs[]", index, minimum=0)
        if malicious and not algorithm.startswith("R2"):
            check.fail("workload.malicious_mhs requires an R2-family "
                       "algorithm")
    elif kind == "groups":
        check.known_keys("workload", workload, {
            "kind", "strategy", "group_size", "message_rate",
        })
        check.choice("workload.strategy",
                     workload.setdefault("strategy", "location_view"),
                     _GROUP_STRATEGIES)
        check.integer("workload.group_size",
                      workload.setdefault("group_size", 6), minimum=2)
        check.number("workload.message_rate",
                     workload.setdefault("message_rate", 0.05),
                     minimum=1e-9)
    elif kind == "multicast":
        check.known_keys("workload", workload, {
            "kind", "group_size", "message_rate", "gc",
        })
        check.integer("workload.group_size",
                      workload.setdefault("group_size", 6), minimum=2)
        check.number("workload.message_rate",
                     workload.setdefault("message_rate", 0.05),
                     minimum=1e-9)
        check.boolean("workload.gc", workload.setdefault("gc", True))
    elif kind == "proxy":
        check.known_keys("workload", workload, {
            "kind", "policy", "message_rate",
        })
        check.choice("workload.policy",
                     workload.setdefault("policy", "adaptive"),
                     _PROXY_POLICIES)
        check.number("workload.message_rate",
                     workload.setdefault("message_rate", 0.05),
                     minimum=1e-9)
    else:  # none
        check.known_keys("workload", workload, {"kind"})
    return workload


def _validate_mobility(check: _Check, data) -> Optional[Dict]:
    if data is None:
        return None
    mobility = dict(check.mapping("mobility", data))
    kind = mobility.setdefault("kind", "uniform")
    check.choice("mobility.kind", kind, MOBILITY_KINDS)
    if kind == "none":
        check.known_keys("mobility", mobility, {"kind"})
        return None
    check.number("mobility.rate", mobility.get("rate"), minimum=1e-9)
    if kind == "uniform":
        check.known_keys("mobility", mobility, {"kind", "rate"})
    else:  # localized
        check.known_keys("mobility", mobility, {
            "kind", "rate", "home_cells", "escape_probability",
        })
        check.integer("mobility.home_cells",
                      mobility.setdefault("home_cells", 2), minimum=1)
        check.number("mobility.escape_probability",
                     mobility.setdefault("escape_probability", 0.0),
                     minimum=0.0, maximum=1.0)
    return mobility


def _validate_disconnects(check: _Check, data) -> Optional[Dict]:
    if data is None:
        return None
    disconnects = dict(check.mapping("disconnects", data))
    check.known_keys("disconnects", disconnects, {
        "rate", "downtime", "supply_prev",
    })
    check.number("disconnects.rate", disconnects.get("rate"),
                 minimum=1e-9)
    check.number("disconnects.downtime", disconnects.get("downtime"),
                 minimum=1e-9)
    check.boolean("disconnects.supply_prev",
                  disconnects.setdefault("supply_prev", True))
    return disconnects


def _validate_event(check: _Check, event, index: int,
                    spec_fields: Dict[str, Any]) -> Dict:
    where = f"events[{index}]"
    event = dict(check.mapping(where, event))
    kind = event.get("kind")
    check.choice(f"{where}.kind", kind, EVENT_KINDS)
    check.number(f"{where}.at", event.get("at"), minimum=0.0)
    n_mss = spec_fields["n_mss"]
    n_mh = spec_fields["n_mh"]
    if kind == "mass_disconnect":
        check.known_keys(where, event, {
            "kind", "at", "fraction", "downtime", "supply_prev",
            "reconnect_spread",
        })
        check.number(f"{where}.fraction",
                     event.setdefault("fraction", 1.0),
                     minimum=1e-9, maximum=1.0)
        check.number(f"{where}.downtime", event.get("downtime"),
                     minimum=1e-9)
        check.boolean(f"{where}.supply_prev",
                      event.setdefault("supply_prev", True))
        check.number(f"{where}.reconnect_spread",
                     event.setdefault("reconnect_spread", 0.0),
                     minimum=0.0)
    elif kind == "converge":
        check.known_keys(where, event, {
            "kind", "at", "cell", "fraction", "spread",
        })
        cell = check.integer(f"{where}.cell", event.get("cell"),
                             minimum=0)
        if cell >= n_mss:
            check.fail(f"{where}.cell {cell} out of range for "
                       f"n_mss={n_mss}")
        check.number(f"{where}.fraction",
                     event.setdefault("fraction", 1.0),
                     minimum=1e-9, maximum=1.0)
        check.number(f"{where}.spread", event.setdefault("spread", 0.0),
                     minimum=0.0)
    elif kind == "scatter":
        check.known_keys(where, event, {
            "kind", "at", "from_cell", "spread",
        })
        if event.get("from_cell") is not None:
            cell = check.integer(f"{where}.from_cell",
                                 event["from_cell"], minimum=0)
            if cell >= n_mss:
                check.fail(f"{where}.from_cell {cell} out of range for "
                           f"n_mss={n_mss}")
        else:
            event["from_cell"] = None
        check.number(f"{where}.spread", event.setdefault("spread", 0.0),
                     minimum=0.0)
    elif kind == "move":
        check.known_keys(where, event, {"kind", "at", "mh", "cell"})
        mh = check.integer(f"{where}.mh", event.get("mh"), minimum=0)
        if mh >= n_mh:
            check.fail(f"{where}.mh {mh} out of range for n_mh={n_mh}")
        cell = check.integer(f"{where}.cell", event.get("cell"),
                             minimum=0)
        if cell >= n_mss:
            check.fail(f"{where}.cell {cell} out of range for "
                       f"n_mss={n_mss}")
    elif kind == "request":
        check.known_keys(where, event, {"kind", "at", "mh"})
        mh = check.integer(f"{where}.mh", event.get("mh"), minimum=0)
        if mh >= n_mh:
            check.fail(f"{where}.mh {mh} out of range for n_mh={n_mh}")
        if spec_fields["workload"]["kind"] != "mutex":
            check.fail(f"{where}: 'request' events need a mutex "
                       f"workload")
    else:  # set_rate
        check.known_keys(where, event, {
            "kind", "at", "workload_rate", "mobility_rate",
        })
        if ("workload_rate" not in event
                and "mobility_rate" not in event):
            check.fail(f"{where}: set_rate needs workload_rate and/or "
                       f"mobility_rate")
        if "workload_rate" in event:
            check.number(f"{where}.workload_rate",
                         event["workload_rate"], minimum=1e-9)
            if spec_fields["workload"]["kind"] in ("none", "mutex") and \
                    spec_fields["workload"].get("algorithm") in ("L1",
                                                                 "R1"):
                check.fail(f"{where}: workload has no adjustable rate")
            if spec_fields["workload"]["kind"] == "none":
                check.fail(f"{where}: workload has no adjustable rate")
        if "mobility_rate" in event:
            check.number(f"{where}.mobility_rate",
                         event["mobility_rate"], minimum=1e-9)
            if spec_fields["mobility"] is None:
                check.fail(f"{where}: no mobility model to re-rate")
    return event


def _validate_expect(check: _Check, data) -> Dict[str, Any]:
    expect = dict(check.mapping("expect", data))
    check.known_keys("expect", expect, _EXPECT_KEYS)
    for key in ("min_completed", "min_accesses", "min_deliveries",
                "min_sent", "max_gave_up"):
        if key in expect:
            check.integer(f"expect.{key}", expect[key], minimum=0)
    if "all_requests_served" in expect:
        check.boolean("expect.all_requests_served",
                      expect["all_requests_served"])
    if "min_faults" in expect:
        min_faults = check.mapping("expect.min_faults",
                                   expect["min_faults"])
        for name, count in min_faults.items():
            check.integer(f"expect.min_faults[{name!r}]", count,
                          minimum=1)
    return expect


def load_spec(data: Dict[str, Any]) -> ScenarioSpec:
    """Validate a plain dict into a :class:`ScenarioSpec`.

    Raises :class:`~repro.errors.ConfigurationError` with the scenario
    name and offending key on any problem.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"scenario spec must be an object, got "
            f"{type(data).__name__}"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            "scenario spec needs a nonempty string 'name'"
        )
    check = _Check(name)
    check.known_keys("spec", data, _TOP_LEVEL_KEYS)

    tags = data.get("tags", [])
    if isinstance(tags, str) or not hasattr(tags, "__iter__"):
        check.fail("tags must be a list of strings")
    tags = tuple(tags)
    for tag in tags:
        if not isinstance(tag, str) or not tag:
            check.fail(f"tags must be nonempty strings, got {tag!r}")

    n_mss = check.integer("n_mss", data.get("n_mss", 4), minimum=1)
    n_mh = check.integer("n_mh", data.get("n_mh", 8), minimum=0)
    seed = check.integer("seed", data.get("seed", 0))
    duration = check.number("duration", data.get("duration", 200.0),
                            minimum=1e-9)
    settle = check.number("settle", data.get("settle", 400.0),
                          minimum=0.0)

    placement = data.get("placement", "round_robin")
    if isinstance(placement, str):
        check.choice("placement", placement, _PLACEMENTS)
    elif isinstance(placement, list):
        if len(placement) != n_mh:
            check.fail(
                f"placement lists {len(placement)} cells for "
                f"{n_mh} MHs"
            )
        for cell in placement:
            check.integer("placement[]", cell, minimum=0)
    else:
        check.fail(f"placement must be a name or a list of cell "
                   f"indices, got {placement!r}")
    search = check.choice("search", data.get("search", "abstract"),
                          _SEARCHES)

    workload = _validate_workload(check, data.get("workload",
                                                  {"kind": "none"}))
    mobility = _validate_mobility(check, data.get("mobility"))
    disconnects = _validate_disconnects(check, data.get("disconnects"))

    spec_fields = {"n_mss": n_mss, "n_mh": n_mh, "workload": workload,
                   "mobility": mobility}
    raw_events = data.get("events", [])
    if isinstance(raw_events, (str, dict)) or not hasattr(
        raw_events, "__iter__"
    ):
        check.fail("events must be a list of objects")
    events = tuple(
        _validate_event(check, event, i, spec_fields)
        for i, event in enumerate(raw_events)
    )

    faults = None
    if data.get("faults") is not None:
        try:
            faults = FaultPlan.from_dict(
                check.mapping("faults", data["faults"])
            )
        except ConfigurationError as exc:
            check.fail(f"faults: {exc}")
        if faults.crashes and workload.get("algorithm") == "L2":
            crash = faults.crashes[0]
            check.fail(
                f"faults.crashes: algorithm L2 does not survive an MSS "
                f"crash ({crash.mss_id} at t={crash.at}, recover_at="
                f"{crash.recover_at}); run R2 under MSS crashes"
            )

    monitors = dict(check.mapping("monitors", data.get("monitors", {})))
    check.known_keys("monitors", monitors, _MONITOR_KEYS)
    for key, value in monitors.items():
        check.number(f"monitors.{key}", value, minimum=1e-9)

    expect = _validate_expect(check, data.get("expect", {}))

    title = data.get("title", "")
    description = data.get("description", "")
    for field_name, value in (("title", title),
                              ("description", description)):
        if not isinstance(value, str):
            check.fail(f"{field_name} must be a string")

    return ScenarioSpec(
        name=name,
        title=title,
        description=description,
        tags=tags,
        n_mss=n_mss,
        n_mh=n_mh,
        seed=seed,
        placement=placement,
        search=search,
        duration=duration,
        settle=settle,
        workload=workload,
        mobility=mobility,
        disconnects=disconnects,
        events=events,
        faults=faults,
        monitors=monitors,
        expect=expect,
    )


def load_file(path: str) -> ScenarioSpec:
    """Read one scenario spec from a JSON (or YAML) file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml  # type: ignore
        except ImportError:
            raise ConfigurationError(
                f"{path}: YAML scenario files need PyYAML installed; "
                f"use JSON instead"
            ) from None
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"{os.path.basename(path)}: not valid JSON: {exc}"
            ) from None
    try:
        return load_spec(data)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"{os.path.basename(path)}: {exc}"
        ) from None
