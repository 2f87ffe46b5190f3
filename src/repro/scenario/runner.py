"""Executing declarative scenarios under the full monitor suite.

:func:`run_scenario` builds a :class:`~repro.facade.Simulation` from a
:class:`~repro.scenario.spec.ScenarioSpec`, wires the declared
workload, mobility, disconnection churn and scheduled mass events,
runs it under every safety monitor plus a liveness watchdog and health
sampler, evaluates the spec's expected-outcome assertions, and returns
a :class:`ScenarioResult`.  :func:`certify` repeats a scenario across
several seeds -- a scenario is *certified* when every seed finishes
with zero invariant violations and every expectation met.

The workload and its mobility are wired by
:func:`repro.workload.build` and the run ended by
:func:`repro.workload.finish`, the code ``repro
mutex|groups|multicast|proxy`` run too: traffic until ``duration``,
every driver stopped, then a mutex's in-flight requests get ``settle``
extra sim-time before any token ring is stopped (or the run drains);
other workloads drain.  The runner adds the simulation, disconnection
churn, scheduled events, expectations and the report.
Certifies the paper's invariants under churn (ROADMAP chaos arc).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.facade import Simulation
from repro.mobility import DisconnectionModel
from repro.monitor import default_monitors
from repro.net.messages import Message
from repro.scenario.report import build_report
from repro.scenario.spec import ScenarioSpec
from repro.workload import WorkloadRun, build, finish

__all__ = ["ScenarioResult", "run_scenario", "certify", "parse_seeds",
           "scenario_monitors"]


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    spec: ScenarioSpec
    seed: int
    report: Dict[str, Any]
    events: int = 0
    failures: List[str] = field(default_factory=list)
    #: a traced run's simulation (``sim.tracer.events`` is the kept
    #: trace); ``None`` otherwise, so a sweep holds no run's state.
    sim: Optional[Simulation] = field(default=None, repr=False,
                                      compare=False)

    @property
    def ok(self) -> bool:
        """Zero invariant violations and every expectation met."""
        return not self.failures and self.report["monitors"]["ok"]

    @property
    def notes(self) -> List[str]:
        """The spec's ``notes``, filled in from this run's report."""
        return [note.format_map(self.report) for note in self.spec.notes]


def scenario_monitors(spec: ScenarioSpec) -> list:
    """Fresh instances of the monitors that certify a run of ``spec``:
    :func:`~repro.monitor.default_monitors` at the spec's deadlines and
    health interval (default 1000, 1000 and 50)."""
    return default_monitors(**{"request_deadline": 1000.0,
                               "token_deadline": 1000.0,
                               "health_interval": 50.0, **spec.monitors})


class _Run:
    """Mutable state for one scenario execution."""

    def __init__(self, spec: ScenarioSpec, seed: int,
                 trace: bool = False) -> None:
        self.spec = spec
        self.seed = seed
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
            monitors=scenario_monitors(spec),
            recovery=spec.recovery,
        )
        #: the counter ``work`` events feed, under a recovery policy.
        self.counter = None
        if spec.recovery is not None:
            from repro.recovery import CounterClient

            self.counter = CounterClient(self.sim.recovery)
        #: payloads of the ``fixed_send`` events, as sent and as
        #: received by their destination stations.
        self.sent: List[Any] = []
        self.received: List[Any] = []
        # Every source of randomness outside the Simulation itself is
        # seeded from (scenario name, seed) so one scenario's draws
        # never shift another's.
        self.event_rng = random.Random(f"scenario:{spec.name}:{seed}")
        #: what :func:`repro.workload.build` wired (set by
        #: :meth:`wire_workload`).
        self.wired: Optional[WorkloadRun] = None

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
        """The workload, its driver and the participants' mobility."""
        self.wired = build(self.sim, self.spec.workload, self.seed,
                           self.spec.mobility)

    def wire_churn(self) -> None:
        disconnects = self.spec.disconnects
        if disconnects is not None:
            self.wired.drivers.append(DisconnectionModel(
                self.sim.network, self.wired.participants,
                disconnects["rate"],
                disconnects["downtime"],
                rng=random.Random(self.seed + 211),
                supply_prev=disconnects["supply_prev"],
            ))

    # -- scheduled mass events ------------------------------------------

    def schedule_events(self) -> None:
        for event in self.spec.events:
            handler = getattr(self, "_event_" + event["kind"])
            self.sim.scheduler.post_at(event["at"], handler, event)
        for dst, kind in sorted({(event["dst"], event["message"])
                                 for event in self.spec.events
                                 if event["kind"] == "fixed_send"}):
            self.sim.mss(dst).register_handler(kind, self._receive)

    def _cohort(self, fraction: float) -> List[str]:
        connected = [
            mh_id for mh_id in self.wired.participants
            if self.sim.network.mobile_host(mh_id).is_connected
        ]
        count = max(1, round(fraction * len(connected))) if connected \
            else 0
        return self.event_rng.sample(connected, min(count,
                                                    len(connected)))

    def _event_mass_disconnect(self, event: Dict[str, Any]) -> None:
        # Every member's disconnect is sent before any reconnect timer
        # is posted, so the timers follow the disconnects in seq order.
        spread = event["reconnect_spread"]
        reconnects = []
        for mh_id in self._cohort(event["fraction"]):
            self.sim.network.mobile_host(mh_id).disconnect()
            target = self.event_rng.choice(self.live_cells())
            delay = event["downtime"] + (
                self.event_rng.uniform(0.0, spread) if spread else 0.0
            )
            reconnects.append((delay, mh_id, target))
        for delay, mh_id, target in reconnects:
            self.sim.scheduler.post(delay, self._reconnect, mh_id, target,
                                    event["supply_prev"])

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
        for mh_id in self._cohort(event["fraction"]):
            delay = self.event_rng.uniform(0.0, spread) if spread \
                else 0.0
            self.sim.scheduler.post(delay, self._move_if_possible,
                                    mh_id, cell)

    def _event_scatter(self, event: Dict[str, Any]) -> None:
        source = (f"mss-{event['from_cell']}"
                  if event["from_cell"] is not None else None)
        spread = event["spread"]
        for mh_id in self.wired.participants:
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
            self.sim.scheduler.post(delay, self._move_if_possible,
                                    mh_id, target)

    def _event_move(self, event: Dict[str, Any]) -> None:
        self._move_if_possible(f"mh-{event['mh']}",
                               f"mss-{event['cell']}")

    def _event_request(self, event: Dict[str, Any]) -> None:
        mh_id = f"mh-{event['mh']}"
        if self.wired.driver is not None:
            self.wired.driver.request_now(mh_id)
        elif self.sim.network.mobile_host(mh_id).is_connected:
            self.wired.mutex.request(mh_id)

    def _event_send(self, event: Dict[str, Any]) -> None:
        self.wired.group.send(f"mh-{event['mh']}", event.get("payload"))

    def _event_fixed_send(self, event: Dict[str, Any]) -> None:
        self.sent.append(event.get("payload"))
        self.sim.network.send_fixed(Message(
            kind=event["message"], src=f"mss-{event['src']}",
            dst=f"mss-{event['dst']}", payload=event.get("payload"),
            scope=event["scope"],
        ))

    def _receive(self, message: Message) -> None:
        self.received.append(message.payload)

    def _event_work(self, event: Dict[str, Any]) -> None:
        self.counter.note_work(f"mh-{event['mh']}")

    def _event_set_rate(self, event: Dict[str, Any]) -> None:
        rate = event.get("workload_rate")
        if rate is not None and self.wired.driver is not None:
            self.wired.driver.set_rate(rate)
        rate = event.get("mobility_rate")
        if rate is not None and self.wired.mobility is not None:
            self.wired.mobility.set_rate(rate)

    # -- execution ------------------------------------------------------

    def execute(self) -> int:
        return finish(self.wired, until=self.spec.duration,
                      settle=self.spec.settle)

    # -- expectations ---------------------------------------------------

    def evaluate(self) -> List[str]:
        expect = self.spec.expect
        wired = self.wired
        workload = wired.driver
        failures: List[str] = []

        def check(label: str, actual, minimum) -> None:
            if actual < minimum:
                failures.append(
                    f"{label}: expected >= {minimum}, got {actual}"
                )

        if "min_completed" in expect:
            check("completed requests", getattr(workload, "completed", 0),
                  expect["min_completed"])
        if expect.get("all_requests_served"):
            if not hasattr(workload, "issued"):
                failures.append(
                    "all_requests_served: no request workload ran"
                )
            elif workload.completed < workload.issued:
                failures.append(
                    f"all_requests_served: "
                    f"{workload.completed} of "
                    f"{workload.issued} requests completed"
                )
        if "min_accesses" in expect:
            accesses = (wired.resource.access_count
                        if wired.resource is not None else 0)
            check("region accesses", accesses, expect["min_accesses"])
        if "min_sent" in expect:
            check("messages sent",
                  getattr(workload, "sent", getattr(workload, "issued", 0)),
                  expect["min_sent"])
        if "min_deliveries" in expect:
            check("deliveries", self._deliveries(),
                  expect["min_deliveries"])
        if "max_gave_up" in expect:
            dropped = getattr(workload, "dropped", 0)
            if dropped > expect["max_gave_up"]:
                failures.append(
                    f"dropped arrivals: expected <= "
                    f"{expect['max_gave_up']}, got {dropped}"
                )
        for name, minimum in expect.get("min_faults", {}).items():
            check(f"fault {name!r}",
                  self.sim.metrics.fault_total(name), minimum)
        if wired.resource is not None:
            # Belt and braces next to the MutualExclusionMonitor.
            wired.resource.assert_no_overlap()
        if wired.feed is not None:
            total = wired.feed.messages_sent
            for member in wired.participants:
                seqs = wired.feed.delivered_seqs(member)
                if seqs != list(range(1, total + 1)):
                    failures.append(
                        f"multicast: {member} saw {len(seqs)} of "
                        f"{total} messages exactly-once in order"
                    )
        return failures

    def _deliveries(self) -> int:
        wired = self.wired
        if wired.group is not None:
            return wired.group.stats.deliveries
        if wired.messenger is not None:
            return len(wired.messenger.delivered)
        if wired.feed is not None:
            return sum(
                len(wired.feed.delivered_seqs(member))
                for member in wired.participants
            )
        return 0

    def workload_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {"kind": self.spec.workload["kind"]}
        wired = self.wired
        if wired.driver is not None:
            for attr in ("issued", "completed", "dropped", "sent"):
                value = getattr(wired.driver, attr, None)
                if value is not None:
                    stats[attr] = value
        if wired.resource is not None:
            stats["accesses"] = wired.resource.access_count
        if wired.group is not None:
            stats["deliveries"] = wired.group.stats.deliveries
            stats["moves"] = wired.group.stats.moves
            stats["significant_moves"] = wired.group.stats.significant_moves
            if hasattr(wired.group, "coordinator_view"):
                stats["view"] = sorted(wired.group.coordinator_view())
        if wired.messenger is not None:
            stats["delivered"] = len(wired.messenger.delivered)
            stats["missed"] = len(wired.messenger.missed)
        if wired.feed is not None:
            stats["multicast_sent"] = wired.feed.messages_sent
        if hasattr(wired.mutex, "regenerations"):
            stats["token_regenerations"] = wired.mutex.regenerations
        if stats["kind"] == "none":
            stats["payloads_delivered"] = self.received == self.sent
        if self.counter is not None:
            recovery = self.sim.recovery
            stats["checkpoints_taken"] = recovery.checkpoints_taken
            stats["restored"] = list(recovery.restored)
            stats["work"] = dict(self.counter.work)
            stats["lost"] = dict(self.counter.lost)
        return stats


def run_scenario(spec: ScenarioSpec,
                 seed: Optional[int] = None,
                 trace: bool = False) -> ScenarioResult:
    """Execute one scenario and return its result.

    Args:
        spec: a validated scenario.
        seed: override for the spec's own seed (certification sweeps).
        trace: forwarded to :class:`Simulation` -- ``True`` keeps the
            trace and the result keeps the simulation
            (:attr:`ScenarioResult.sim`).  The report is the same
            either way (``tools/check_batched_equivalence.py``).
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
                          events=events, failures=failures,
                          sim=run.sim if trace else None)


def parse_seeds(text: str) -> List[int]:
    """The seeds ``text`` names: comma-separated integers and inclusive
    ranges ``a..b``, so ``"1..3,7"`` is ``[1, 2, 3, 7]``.  Raises
    :class:`~repro.errors.ConfigurationError` with a one-line message
    on anything else."""
    seeds: List[int] = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        first, dots, last = part.partition("..")
        try:
            first = int(first)
            last = int(last) if dots else first
        except ValueError:
            raise ConfigurationError(
                f"seeds must be comma-separated integers or ranges a..b, "
                f"got {part!r}"
            ) from None
        if last < first:
            raise ConfigurationError(f"seed range {part!r} is empty")
        seeds.extend(range(first, last + 1))
    if not seeds:
        raise ConfigurationError("no seeds given")
    return seeds


def certify(spec: ScenarioSpec, seeds) -> List[ScenarioResult]:
    """Run ``spec`` once per seed; the pack's certification gate.

    The scenario is certified when every returned result is ``ok``.
    """
    return [run_scenario(spec, seed=seed) for seed in seeds]
