"""Executing declarative scenarios under the full monitor suite.

:func:`run_scenario` builds a :class:`~repro.facade.Simulation` from a
:class:`~repro.scenario.spec.ScenarioSpec`, wires the declared
workload, mobility, disconnection churn and scheduled mass events,
runs it under every safety monitor plus a liveness watchdog and health
sampler, evaluates the spec's expected-outcome assertions, and returns
a :class:`ScenarioResult`.  :func:`certify` repeats a scenario across
several seeds -- a scenario is *certified* when every seed finishes
with zero invariant violations and every expectation met.

The run discipline mirrors the CLI: drive traffic until ``duration``,
stop the drivers, grant up to ``settle`` extra sim-time for in-flight
mutex requests to complete, stop any token ring, then settle the
remaining events.
Certifies the paper's invariants under churn (ROADMAP chaos arc); large mass-event cohorts are coalesced via :mod:`repro.scale` (ROADMAP item 2).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.facade import Simulation
from repro.groups import (
    AlwaysInformGroup,
    LocationViewGroup,
    PureSearchGroup,
)
from repro.mobility import (
    DisconnectionModel,
    LocalizedMobility,
    UniformMobility,
)
from repro.monitor import HealthMonitor, LivenessMonitor, safety_monitors
from repro.mutex import CriticalResource, L1Mutex, L2Mutex, R1Mutex, R2Mutex
from repro.mutex.r2 import R2Variant
from repro.scale import dispatch_coalesced
from repro.scenario.report import build_report
from repro.scenario.spec import ScenarioSpec
from repro.sim import PoissonProcess
from repro.workload import GroupMessagingWorkload, MutexWorkload

__all__ = ["ScenarioResult", "run_scenario", "certify"]

_GROUP_CLASSES = {
    "pure_search": PureSearchGroup,
    "always_inform": AlwaysInformGroup,
    "location_view": LocationViewGroup,
}

_R2_VARIANTS = {
    "R2": R2Variant.PLAIN,
    "R2'": R2Variant.COUNTER,
    "R2''": R2Variant.TOKEN_LIST,
}


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    spec: ScenarioSpec
    seed: int
    report: Dict[str, Any]
    events: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Zero invariant violations and every expectation met."""
        return not self.failures and self.report["monitors"]["ok"]


class _Run:
    """Mutable state for one scenario execution."""

    def __init__(self, spec: ScenarioSpec, seed: int,
                 trace: bool = False) -> None:
        self.spec = spec
        self.seed = seed
        monitors = spec.monitors
        self.sim = Simulation(
            trace=trace,
            n_mss=spec.n_mss,
            n_mh=spec.n_mh,
            seed=seed,
            placement=(list(spec.placement)
                       if isinstance(spec.placement, (list, tuple))
                       else spec.placement),
            search=spec.search,
            fault_plan=spec.faults,
            monitors=safety_monitors() + [
                LivenessMonitor(
                    request_deadline=monitors.get("request_deadline",
                                                  1000.0),
                    token_deadline=monitors.get("token_deadline",
                                                1000.0),
                ),
                HealthMonitor(
                    interval=monitors.get("health_interval", 50.0)
                ),
            ],
        )
        # Every source of randomness outside the Simulation itself is
        # seeded from (scenario name, seed) so one scenario's draws
        # never shift another's.
        self.event_rng = random.Random(f"scenario:{spec.name}:{seed}")
        self.mutex = None
        self.resource: Optional[CriticalResource] = None
        self.workload = None        # MutexWorkload / GroupMessagingWorkload
        self.traffic = None         # PoissonProcess (proxy / multicast)
        self.group = None
        self.messenger = None
        self.feed = None
        self.sent = 0
        self.mobility = None
        self.disconnects = None
        self.participants = list(self.sim.mh_ids)

    # -- helpers -------------------------------------------------------

    def live_cells(self) -> List[str]:
        cells = [
            mss_id for mss_id in self.sim.mss_ids
            if not self.sim.network.is_mss_crashed(mss_id)
        ]
        return cells or list(self.sim.mss_ids)

    def _move_if_possible(self, mh_id: str, cell: str) -> None:
        mh = self.sim.network.mobile_host(mh_id)
        if not mh.is_connected or mh.current_mss_id == cell:
            return
        if self.sim.network.is_mss_crashed(cell):
            return
        mh.move_to(cell)

    # -- workload wiring -----------------------------------------------

    def wire_workload(self) -> None:
        spec = self.spec
        sim = self.sim
        workload = spec.workload
        kind = workload["kind"]
        if kind == "mutex":
            self.resource = CriticalResource(sim.scheduler)
            algorithm = workload["algorithm"]
            if algorithm == "L1":
                self.mutex = L1Mutex(sim.network, sim.mh_ids,
                                     self.resource,
                                     cs_duration=workload["cs_duration"])
            elif algorithm == "L2":
                self.mutex = L2Mutex(sim.network, self.resource,
                                     cs_duration=workload["cs_duration"])
            elif algorithm == "R1":
                self.mutex = R1Mutex(sim.network, sim.mh_ids,
                                     self.resource,
                                     cs_duration=workload["cs_duration"])
            else:
                self.mutex = R2Mutex(
                    sim.network,
                    self.resource,
                    variant=_R2_VARIANTS[algorithm],
                    cs_duration=workload["cs_duration"],
                    token_timeout=workload["token_timeout"],
                    max_traversals=workload.get("max_traversals"),
                )
                for index in workload["malicious_mhs"]:
                    self.mutex.malicious_mhs.add(f"mh-{index}")
                self.mutex.start()
            if algorithm not in ("L1", "R1"):
                self.workload = MutexWorkload(
                    sim.network, self.mutex, sim.mh_ids,
                    workload["request_rate"],
                    rng=random.Random(self.seed + 7),
                )
        elif kind == "groups":
            members = sim.mh_ids[: workload["group_size"]]
            self.participants = members
            self.group = _GROUP_CLASSES[workload["strategy"]](
                sim.network, members
            )
            self.workload = GroupMessagingWorkload(
                sim.network, self.group, workload["message_rate"],
                rng=random.Random(self.seed + 7),
            )
        elif kind == "multicast":
            from repro.multicast import ExactlyOnceMulticast

            members = sim.mh_ids[: workload["group_size"]]
            self.participants = members
            self.feed = ExactlyOnceMulticast(sim.network, members,
                                             gc=workload["gc"])
            rng = random.Random(self.seed + 7)

            def send_multicast() -> None:
                sender = rng.choice(members)
                if sim.network.mobile_host(sender).is_connected:
                    self.sent += 1
                    self.feed.send(sender, ("m", self.sent))

            self.traffic = PoissonProcess(
                sim.scheduler, workload["message_rate"], send_multicast,
                rng=random.Random(self.seed + 8),
            )
        elif kind == "proxy":
            from repro.proxy import (
                AdaptiveProxyPolicy,
                FixedProxyPolicy,
                LocalProxyPolicy,
                ProxiedMessenger,
                ProxyManager,
            )

            policy = {
                "fixed": FixedProxyPolicy,
                "local": LocalProxyPolicy,
                "adaptive": AdaptiveProxyPolicy,
            }[workload["policy"]]()
            manager = ProxyManager(sim.network, policy, sim.mh_ids)
            self.messenger = ProxiedMessenger(manager)
            rng = random.Random(self.seed + 7)

            def send_letter() -> None:
                src, dst = rng.sample(sim.mh_ids, 2)
                if sim.network.mobile_host(src).is_connected:
                    self.sent += 1
                    self.messenger.send(src, dst, ("letter", self.sent))

            self.traffic = PoissonProcess(
                sim.scheduler, workload["message_rate"], send_letter,
                rng=random.Random(self.seed + 8),
            )

    def wire_churn(self) -> None:
        spec = self.spec
        sim = self.sim
        if spec.mobility is not None:
            kind = spec.mobility["kind"]
            if kind == "uniform":
                self.mobility = UniformMobility(
                    sim.network, self.participants,
                    spec.mobility["rate"],
                    rng=random.Random(self.seed + 101),
                )
            else:  # localized
                home = [
                    f"mss-{i}"
                    for i in range(min(spec.mobility["home_cells"],
                                       spec.n_mss))
                ]
                self.mobility = LocalizedMobility(
                    sim.network, self.participants,
                    spec.mobility["rate"],
                    rng=random.Random(self.seed + 101),
                    home_cells=home,
                    escape_probability=spec.mobility[
                        "escape_probability"],
                )
        if spec.disconnects is not None:
            self.disconnects = DisconnectionModel(
                sim.network, self.participants,
                spec.disconnects["rate"],
                spec.disconnects["downtime"],
                rng=random.Random(self.seed + 211),
                supply_prev=spec.disconnects["supply_prev"],
            )

    # -- scheduled mass events ------------------------------------------

    def schedule_events(self) -> None:
        for event in self.spec.events:
            handler = getattr(self, "_event_" + event["kind"])
            self.sim.scheduler.schedule_at(event["at"], handler, event)

    def _cohort(self, fraction: float) -> List[str]:
        connected = [
            mh_id for mh_id in self.participants
            if self.sim.network.mobile_host(mh_id).is_connected
        ]
        count = max(1, round(fraction * len(connected))) if connected \
            else 0
        return self.event_rng.sample(connected, min(count,
                                                    len(connected)))

    def _event_mass_disconnect(self, event: Dict[str, Any]) -> None:
        # Cohort follow-ups go through the coalesced dispatcher: small
        # cohorts keep exact per-MH delays, large ones share at most
        # ~32 scheduler events instead of one per MH (ROADMAP item 2).
        spread = event["reconnect_spread"]
        ops = []
        for mh_id in self._cohort(event["fraction"]):
            self.sim.network.mobile_host(mh_id).disconnect()
            target = self.event_rng.choice(self.live_cells())
            delay = event["downtime"] + (
                self.event_rng.uniform(0.0, spread) if spread else 0.0
            )
            ops.append((
                delay, self._reconnect,
                (mh_id, target, event["supply_prev"]),
            ))
        dispatch_coalesced(self.sim.scheduler, ops)

    def _reconnect(self, mh_id: str, mss_id: str,
                   supply_prev: bool) -> None:
        mh = self.sim.network.mobile_host(mh_id)
        if not mh.is_disconnected:
            return
        if self.sim.network.is_mss_crashed(mss_id):
            mss_id = self.event_rng.choice(self.live_cells())
        mh.reconnect(mss_id, supply_prev=supply_prev)

    def _event_converge(self, event: Dict[str, Any]) -> None:
        cell = f"mss-{event['cell']}"
        spread = event["spread"]
        ops = []
        for mh_id in self._cohort(event["fraction"]):
            delay = self.event_rng.uniform(0.0, spread) if spread \
                else 0.0
            ops.append((delay, self._move_if_possible, (mh_id, cell)))
        dispatch_coalesced(self.sim.scheduler, ops)

    def _event_scatter(self, event: Dict[str, Any]) -> None:
        source = (f"mss-{event['from_cell']}"
                  if event["from_cell"] is not None else None)
        spread = event["spread"]
        ops = []
        for mh_id in self.participants:
            mh = self.sim.network.mobile_host(mh_id)
            if not mh.is_connected:
                continue
            if source is not None and mh.current_mss_id != source:
                continue
            options = [
                cell for cell in self.live_cells()
                if cell != mh.current_mss_id
            ]
            if not options:
                continue
            target = self.event_rng.choice(options)
            delay = self.event_rng.uniform(0.0, spread) if spread \
                else 0.0
            ops.append((delay, self._move_if_possible, (mh_id, target)))
        dispatch_coalesced(self.sim.scheduler, ops)

    def _event_move(self, event: Dict[str, Any]) -> None:
        self._move_if_possible(f"mh-{event['mh']}",
                               f"mss-{event['cell']}")

    def _event_request(self, event: Dict[str, Any]) -> None:
        mh_id = f"mh-{event['mh']}"
        if self.workload is not None:
            self.workload.request_now(mh_id)
            return
        if not self.sim.network.mobile_host(mh_id).is_connected:
            return
        if isinstance(self.mutex, R1Mutex):
            self.mutex.want(mh_id)
        elif self.mutex is not None:
            self.mutex.request(mh_id)

    def _event_set_rate(self, event: Dict[str, Any]) -> None:
        rate = event.get("workload_rate")
        if rate is not None:
            if self.workload is not None:
                self.workload.set_rate(rate)
            elif self.traffic is not None:
                self.traffic.set_rate(rate)
        rate = event.get("mobility_rate")
        if rate is not None and self.mobility is not None:
            self.mobility.set_rate(rate)

    # -- execution ------------------------------------------------------

    def execute(self) -> int:
        spec = self.spec
        sim = self.sim
        workload_kind = spec.workload["kind"]
        algorithm = spec.workload.get("algorithm")
        if workload_kind == "mutex" and algorithm == "R1":
            # R1's ring only circulates once started; wants arrive via
            # scheduled 'request' events.
            self.mutex.start()

        events = sim.run(until=spec.duration)
        for driver in (self.workload, self.traffic, self.mobility,
                       self.disconnects):
            if driver is not None:
                driver.stop()

        if workload_kind == "mutex":
            deadline = sim.now + spec.settle
            if self.workload is not None:
                while (self.workload.completed < self.workload.issued
                       and sim.now < deadline):
                    events += sim.run(
                        until=min(sim.now + 50.0, deadline)
                    )
            if algorithm in ("R1", "R2", "R2'", "R2''"):
                # Stop the token at the ring head, else it circulates
                # forever (cf. the CLI's ring-stop discipline).
                self.mutex.max_traversals = 0
                events += sim.run(until=sim.now + 200.0)
            else:
                events += sim.drain()
        else:
            events += sim.drain()
        return events

    # -- expectations ---------------------------------------------------

    def evaluate(self) -> List[str]:
        expect = self.spec.expect
        failures: List[str] = []

        def check(label: str, actual, minimum) -> None:
            if actual < minimum:
                failures.append(
                    f"{label}: expected >= {minimum}, got {actual}"
                )

        if "min_completed" in expect:
            completed = (self.workload.completed
                         if self.workload is not None else 0)
            check("completed requests", completed,
                  expect["min_completed"])
        if expect.get("all_requests_served"):
            if self.workload is None:
                failures.append(
                    "all_requests_served: no request workload ran"
                )
            elif self.workload.completed < self.workload.issued:
                failures.append(
                    f"all_requests_served: "
                    f"{self.workload.completed} of "
                    f"{self.workload.issued} requests completed"
                )
        if "min_accesses" in expect:
            accesses = (self.resource.access_count
                        if self.resource is not None else 0)
            check("region accesses", accesses, expect["min_accesses"])
        if "min_sent" in expect:
            sent = self.sent
            if self.workload is not None:
                sent = getattr(self.workload, "sent",
                               getattr(self.workload, "issued", 0))
            check("messages sent", sent, expect["min_sent"])
        if "min_deliveries" in expect:
            check("deliveries", self._deliveries(),
                  expect["min_deliveries"])
        if "max_gave_up" in expect:
            dropped = (self.workload.dropped
                       if self.workload is not None else 0)
            if dropped > expect["max_gave_up"]:
                failures.append(
                    f"dropped arrivals: expected <= "
                    f"{expect['max_gave_up']}, got {dropped}"
                )
        for name, minimum in expect.get("min_faults", {}).items():
            check(f"fault {name!r}",
                  self.sim.metrics.fault_total(name), minimum)
        if self.resource is not None:
            # Belt and braces next to the MutualExclusionMonitor.
            self.resource.assert_no_overlap()
        if self.feed is not None:
            total = self.feed.messages_sent
            for member in self.participants:
                seqs = self.feed.delivered_seqs(member)
                if seqs != list(range(1, total + 1)):
                    failures.append(
                        f"multicast: {member} saw {len(seqs)} of "
                        f"{total} messages exactly-once in order"
                    )
        return failures

    def _deliveries(self) -> int:
        if self.group is not None:
            return self.group.stats.deliveries
        if self.messenger is not None:
            return len(self.messenger.delivered)
        if self.feed is not None:
            return sum(
                len(self.feed.delivered_seqs(member))
                for member in self.participants
            )
        return 0

    def workload_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {"kind": self.spec.workload["kind"]}
        if self.workload is not None:
            for attr in ("issued", "completed", "dropped", "sent"):
                value = getattr(self.workload, attr, None)
                if value is not None:
                    stats[attr] = value
        if self.traffic is not None:
            stats["sent"] = self.sent
        if self.resource is not None:
            stats["accesses"] = self.resource.access_count
        if self.group is not None:
            stats["deliveries"] = self.group.stats.deliveries
            stats["moves"] = self.group.stats.moves
        if self.messenger is not None:
            stats["delivered"] = len(self.messenger.delivered)
            stats["missed"] = len(self.messenger.missed)
        if self.feed is not None:
            stats["multicast_sent"] = self.feed.messages_sent
        if self.mutex is not None and hasattr(self.mutex,
                                              "regenerations"):
            stats["token_regenerations"] = self.mutex.regenerations
        return stats


def run_scenario(spec: ScenarioSpec,
                 seed: Optional[int] = None,
                 trace: bool = False) -> ScenarioResult:
    """Execute one scenario and return its result.

    Args:
        spec: a validated scenario.
        seed: override for the spec's own seed (certification sweeps).
        trace: forwarded to :class:`Simulation` -- ``True`` records
            the event list and delivers it to the monitors per event,
            the reference the equivalence gate compares the default
            ledger/drain run against.
    """
    seed = spec.seed if seed is None else seed
    started = time.perf_counter()
    run = _Run(spec, seed, trace=trace)
    run.wire_workload()
    run.wire_churn()
    run.schedule_events()
    events = run.execute()
    run.sim.monitor_hub.finalize()
    failures = run.evaluate()
    report = build_report(
        spec, seed, run.sim, run.workload_stats(),
        wall_time_s=time.perf_counter() - started,
    )
    return ScenarioResult(spec=spec, seed=seed, report=report,
                          events=events, failures=failures)


def certify(spec: ScenarioSpec, seeds) -> List[ScenarioResult]:
    """Run ``spec`` once per seed; the pack's certification gate.

    The scenario is certified when every returned result is ``ok``.
    """
    return [run_scenario(spec, seed=seed) for seed in seeds]
