"""Workload generators (S21) and the one place a workload is wired.

Drivers that exercise the algorithms over time:

* :class:`MutexWorkload` -- per-MH Poisson request arrivals against any
  mutual exclusion object exposing ``request(mh_id)``; tracks issued
  and completed requests and never leaves more than one request per MH
  outstanding.
* :class:`GroupMessagingWorkload` -- Poisson group-message traffic from
  random members; combined with a mobility model it dials in the
  paper's mobility-to-message ratio MOB/MSG.
* :class:`MulticastWorkload` -- Poisson exactly-once multicasts from
  random members (the paper's reference [1]).
* :class:`LetterWorkload` -- Poisson MH-to-MH letters through the
  proxy framework (Section 5).

The message drivers take two generators: one draws who sends, the
other times the arrivals; each counts in ``dropped`` the arrivals whose
sender was detached.

:func:`build` turns a workload dict shaped like a scenario spec's
``workload`` into the algorithm under test, its seeded driver, the
participants and their mobility, and :func:`finish` runs it out:
``repro mutex|groups|multicast|proxy`` and the scenario runner both go
through them.  :data:`GROUP_STRATEGIES`, :data:`PROXY_POLICIES` and
:data:`SEARCHES` are the one table of group-strategy, proxy-policy and
search-protocol names; a class loads only when :func:`group_strategy`,
:func:`proxy_policy` or :func:`search_protocol` resolves it.
"""

import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.workload.generators import (
    GroupMessagingWorkload, LetterWorkload, MulticastWorkload, MutexWorkload,
)

__all__ = ["GROUP_STRATEGIES", "GroupMessagingWorkload", "LetterWorkload",
           "MulticastWorkload", "MutexWorkload", "PROXY_POLICIES",
           "SEARCHES", "WorkloadRun", "build", "finish", "group_strategy",
           "proxy_policy", "search_protocol"]

#: group-strategy name -> class name in :mod:`repro.groups`: ``repro
#: groups --strategy``'s choices and a groups workload's ``strategy``.
GROUP_STRATEGIES = {
    "pure_search": "PureSearchGroup",
    "always_inform": "AlwaysInformGroup",
    "location_view": "LocationViewGroup",
}

#: proxy-policy name -> class name in :mod:`repro.proxy`: ``repro proxy
#: --policy``'s choices and a proxy workload's ``policy``.
PROXY_POLICIES = {
    "fixed": "FixedProxyPolicy",
    "local": "LocalProxyPolicy",
    "adaptive": "AdaptiveProxyPolicy",
}

#: search-protocol name -> class name in :mod:`repro.net`: every
#: ``--search``'s choices, a spec's ``search`` and
#: ``Simulation(search=...)``.
SEARCHES = {
    "abstract": "AbstractSearch",
    "broadcast": "BroadcastSearch",
    "home-agent": "HomeAgentSearch",
    "caching": "CachingSearch",
    "regional": "RegionalSearch",
}


def _resolve(package: str, table: dict, what: str, name: str):
    if name not in table:
        raise ConfigurationError(
            f"unknown {what} {name!r}; known: {sorted(table)}"
        )
    return getattr(__import__(package, fromlist=[table[name]]),
                   table[name])


def group_strategy(name: str):
    """The :mod:`repro.groups` class of group strategy ``name``."""
    return _resolve("repro.groups", GROUP_STRATEGIES, "group strategy",
                    name)


def proxy_policy(name: str):
    """The :mod:`repro.proxy` class of proxy policy ``name``."""
    return _resolve("repro.proxy", PROXY_POLICIES, "proxy policy", name)


def search_protocol(name: str):
    """The :mod:`repro.net` class of search protocol ``name``."""
    return _resolve("repro.net", SEARCHES, "search protocol", name)


class WorkloadRun:
    """What :func:`build` wired into a simulation.

    ``participants`` are the MHs the workload runs on (a group's
    members, else every MH).  Of ``mutex``/``resource``, ``group``,
    ``feed`` and ``policy``/``messenger`` only the workload's own are
    set; ``driver`` is its traffic driver (``None`` for a baseline
    mutex or no workload) and ``drivers`` is everything
    :func:`finish` stops, in order.
    """

    mutex = resource = group = feed = policy = messenger = None
    driver = mobility = None

    def __init__(self, sim, participants) -> None:
        self.sim = sim
        self.participants = participants
        self.drivers = []


def build(sim, workload: dict, seed: int,
          mobility: Optional[dict] = None) -> WorkloadRun:
    """Wire ``workload`` and ``mobility`` into ``sim``.

    ``workload`` has a scenario spec's workload keys (``kind``,
    ``algorithm``, ``strategy``, ``policy``, ``group_size``, the rates,
    ...).  A mutex or groups workload whose rate is ``None`` gets no
    driver.  A mutex workload may add ``on_complete``, the indices of
    the MHs that request up front (``requests``) and a ``scope`` for
    :func:`repro.mutex.build`, and its ring options pass on when
    present.  The traffic draws from ``seed + 7`` (and
    ``seed + 8`` for the arrival times of multicasts and letters); the
    uniform or localized ``mobility`` of the participants draws from
    ``seed + 101``.
    """
    network = sim.network
    mh_ids = sim.mh_ids
    members = mh_ids[: workload.get("group_size", len(mh_ids))]
    run = WorkloadRun(sim, members)
    kind = workload["kind"]
    if kind == "mutex":
        import repro.mutex as mutexes

        run.resource = mutexes.CriticalResource(sim.scheduler)
        ring = {key: workload[key] for key in ("token_timeout",
                                               "max_traversals")
                if key in workload}
        run.mutex = mutexes.build(
            workload["algorithm"], network, mh_ids, run.resource,
            workload["cs_duration"],
            on_complete=workload.get("on_complete"),
            requests=[f"mh-{index}"
                      for index in workload.get("requests", ())],
            scope=workload.get("scope"), **ring,
        )
        for index in workload.get("malicious_mhs", ()):
            run.mutex.malicious_mhs.add(f"mh-{index}")
        if (workload["algorithm"] not in mutexes.BASELINES
                and workload["request_rate"] is not None):
            run.driver = MutexWorkload(
                network, run.mutex, mh_ids, workload["request_rate"],
                rng=random.Random(seed + 7),
            )
    elif kind == "groups":
        run.group = group_strategy(workload["strategy"])(network, members)
        if workload["message_rate"] is not None:
            run.driver = GroupMessagingWorkload(
                network, run.group, workload["message_rate"],
                rng=random.Random(seed + 7),
            )
    elif kind == "multicast":
        from repro.multicast import ExactlyOnceMulticast

        run.feed = ExactlyOnceMulticast(network, members,
                                        gc=workload["gc"])
        run.driver = MulticastWorkload(
            network, run.feed, workload["message_rate"],
            random.Random(seed + 7), random.Random(seed + 8),
        )
    elif kind == "proxy":
        from repro.proxy import ProxiedMessenger, ProxyManager

        run.policy = proxy_policy(workload["policy"])()
        run.messenger = ProxiedMessenger(
            ProxyManager(network, run.policy, mh_ids))
        run.driver = LetterWorkload(
            network, run.messenger, mh_ids, workload["message_rate"],
            random.Random(seed + 7), random.Random(seed + 8),
        )
    if mobility is not None:
        from repro.mobility import LocalizedMobility, UniformMobility

        rng = random.Random(seed + 101)
        if mobility["kind"] == "uniform":
            run.mobility = UniformMobility(network, members,
                                           mobility["rate"], rng=rng)
        else:  # localized
            run.mobility = LocalizedMobility(
                network, members, mobility["rate"], rng=rng,
                home_cells=sim.mss_ids[: mobility["home_cells"]],
                escape_probability=mobility["escape_probability"],
            )
    run.drivers = [driver for driver in (run.driver, run.mobility)
                   if driver is not None]
    return run


def finish(run: WorkloadRun, until: float, settle: float = 0.0,
           horizon: float = 200.0) -> int:
    """Run ``run.sim`` to ``until``, stop every driver in
    ``run.drivers``, then end the run; returns the events fired.

    A mutex driver's outstanding requests (``completed + aborted <
    issued``) get ``settle`` more sim-time, in steps of at most 50.
    Then a token ring is stopped at its head (``max_traversals = 0``)
    and runs ``horizon`` more; any other run drains.
    """
    sim = run.sim
    events = sim.run(until=until)
    for driver in run.drivers:
        driver.stop()
    requests = run.driver if run.mutex is not None else None
    if requests is not None:
        deadline = sim.now + settle
        while (requests.completed + requests.aborted < requests.issued
               and sim.now < deadline):
            events += sim.run(until=min(sim.now + 50.0, deadline))
    if hasattr(run.mutex, "max_traversals"):
        run.mutex.max_traversals = 0
        return events + sim.run(until=sim.now + horizon)
    return events + sim.drain()
