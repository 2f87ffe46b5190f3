"""Curated performance scenarios for the benchmark harness.

Each scenario is a self-contained, fully deterministic simulation run
mirroring one of the ``benchmarks/bench_*.py`` workloads.  Scenarios
return the number of scheduler events they processed; the harness
divides by wall time to get the events/sec figure every ``BENCH_*.json``
entry and the CI regression gate are built on.

Determinism matters twice here: repeated runs of one scenario must
process the *same* number of events (the harness asserts this, so a
perf run doubles as a substrate-determinism check), and optimizations
to the substrate must never change the count (wall time is the only
thing allowed to move).
Includes the resource-gated scale scenarios of ROADMAP item 2 (docs/scaling.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.facade import Simulation
from repro.faults import FaultPlan, LinkFault, MhCrash
from repro.metrics import CostModel
from repro.mobility import UniformMobility
from repro.mutex import CriticalResource, L2Mutex
from repro.net import ConstantLatency, NetworkConfig
from repro.net.messages import Message
from repro.sim import PoissonProcess, Scheduler
from repro.workload import MutexWorkload

#: cost model shared by every scenario (same as ``benchmarks/conftest``).
COSTS = CostModel(c_fixed=1.0, c_wireless=5.0, c_search=10.0)


def _make_sim(n_mss: int, n_mh: int, seed: int, **kwargs) -> Simulation:
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    return Simulation(
        n_mss=n_mss,
        n_mh=n_mh,
        seed=seed,
        cost_model=COSTS,
        config=config,
        **kwargs,
    )


def loaded_system(n_mss: int, n_mh: int, duration: float = 150.0,
                  request_rate: float = 0.05, move_rate: float = 0.02,
                  monitors=None, capture_timing: bool = False) -> int:
    """The ``bench_scale.py`` workload: L2 mutex traffic plus mobility.

    This is the harness's headline scenario (at M=10, N=200): a system
    saturated with mutual-exclusion requests while every MH wanders,
    exercising the fixed-network send path, the wireless cell, the
    scheduler, and the metrics counters together.  With ``monitors``
    set, the same workload runs under the online invariant monitors
    (which must not change the event count -- only the wall time), so
    the harness prices the monitoring overhead (ledger appends plus
    drains) directly.  ``capture_timing`` additionally instruments the
    network send paths and publishes the per-subsystem wall-time split
    for the harness to attach to the BENCH record (costs a
    ``perf_counter`` pair per message, so only ``smoke_ledger`` opts
    in).
    """
    sim = _make_sim(n_mss, n_mh, seed=3, monitors=monitors)
    if capture_timing:
        from repro.obs import instrument_network
        from repro.obs.timing import publish_run

        timers = (sim.monitor_hub.timers if sim.monitor_hub is not None
                  else None)
        if timers is None:  # pragma: no cover - timing needs monitors
            raise ValueError("capture_timing requires monitors")
        instrument_network(sim.network, timers)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=request_rate,
                             rng=random.Random(4))
    mobility = UniformMobility(sim.network, sim.mh_ids, move_rate,
                               rng=random.Random(5))
    sim.run(until=duration)
    workload.stop()
    mobility.stop()
    sim.drain()
    resource.assert_no_overlap()
    sim.assert_invariants()
    if capture_timing:
        publish_run(sim.monitor_hub.timers.snapshot())
    return sim.scheduler.events_processed


def search_messaging(n_mss: int, n_mh: int, duration: float = 120.0,
                     rate: float = 0.4) -> int:
    """Broadcast-search ``send_to_mh`` traffic with mobility.

    Mirrors the location-strategy benches (``bench_a1`` /
    ``bench_e7``): MSSs keep sending application messages to moving
    MHs, so every delivery pays a search, a forward, and a wireless
    hop -- the paper's C_search / C_wireless tradeoff as a hot loop.
    """
    sim = _make_sim(n_mss, n_mh, seed=11, search="broadcast")
    rng = random.Random(13)
    delivered = [0]
    for i in range(n_mh):
        sim.mh(i).register_handler("app.ping", lambda msg: None)

    def send_one() -> None:
        src = sim.mss_id(rng.randrange(n_mss))
        dst = sim.mh_id(rng.randrange(n_mh))
        message = Message(src=src, dst=dst, kind="app.ping",
                          scope="perf", payload=None)
        sim.network.send_to_mh(
            src, dst, message,
            on_delivered=lambda _m: delivered.__setitem__(0, delivered[0] + 1),
        )

    driver = PoissonProcess(sim.scheduler, rate, send_one,
                            rng=random.Random(17))
    mobility = UniformMobility(sim.network, sim.mh_ids, 0.02,
                               rng=random.Random(19))
    sim.run(until=duration)
    driver.stop()
    mobility.stop()
    sim.drain()
    if delivered[0] == 0:
        raise AssertionError("search_messaging delivered nothing")
    return sim.scheduler.events_processed


def reliable_churn(n_mss: int, n_mh: int, duration: float = 120.0) -> int:
    """Lossy fixed links under the reliable transport (``bench_a8``'s
    regime, minus crashes): every send arms a retransmit timer that an
    ack later cancels, making this the cancellation-heavy workload the
    scheduler's lazy-deletion path is optimized for."""
    plan = FaultPlan(
        link_faults=(LinkFault(drop=0.05),),
        seed=23,
        reliable=True,
        retransmit_timeout=4.0,
    )
    sim = _make_sim(n_mss, n_mh, seed=29)
    from repro.faults import apply_fault_plan

    apply_fault_plan(sim.network, plan)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    workload = MutexWorkload(sim.network, mutex, sim.mh_ids,
                             request_rate=0.05, rng=random.Random(31))
    sim.run(until=duration)
    workload.stop()
    sim.drain()
    return sim.scheduler.events_processed


def recovery_churn(n_mss: int, n_mh: int, duration: float = 300.0,
                   crash_every: float = 12.0) -> int:
    """MH crash/recovery cycles under distance-based checkpointing.

    Hosts keep producing recoverable work (checkpoint uplinks, meta
    riding every handoff) while a staggered plan crashes them round
    robin and brings each back 8 time units later -- so the run
    continuously exercises the save path, the stale-state purges at
    crash time, and the trail-walking fetch/restore at recovery.
    """
    from repro.recovery import CounterClient

    crashes = []
    t, i = 20.0, 0
    while t + 8.0 < duration - 20.0:
        crashes.append(MhCrash(f"mh-{i % n_mh}", at=t,
                               recover_at=t + 8.0,
                               amnesia=(i % 3 == 0)))
        t += crash_every
        i += 1
    plan = FaultPlan(mh_crashes=tuple(crashes), seed=41)
    sim = _make_sim(n_mss, n_mh, seed=43, fault_plan=plan,
                    recovery="distance:2")
    counter = CounterClient(sim.recovery)
    rng = random.Random(47)

    def work_one() -> None:
        mh_id = sim.mh_id(rng.randrange(n_mh))
        if not sim.network.mobile_host(mh_id).crashed:
            counter.note_work(mh_id)

    driver = PoissonProcess(sim.scheduler, 2.0, work_one,
                            rng=random.Random(53))
    mobility = UniformMobility(sim.network, sim.mh_ids, 0.05,
                               rng=random.Random(59))
    sim.run(until=duration)
    driver.stop()
    mobility.stop()
    sim.drain()
    if sim.recovery.checkpoints_taken == 0 or not sim.recovery.restored:
        raise AssertionError("recovery_churn recovered nothing")
    return sim.scheduler.events_processed


def crowd_churn(n_mss: int, n_mh: int, duration: float = 200.0,
                tick: float = 10.0, n_active: int = 16) -> int:
    """Array-backed population at scale: crowd churn + small active set.

    The headline workload for ROADMAP item 2: ``n_mh`` hosts live in
    the :class:`~repro.scale.PopulationStore` (parallel arrays, no
    python objects), a :class:`~repro.scale.CrowdChurn` driver applies
    mass move/disconnect/reconnect waves against the arrays, and a
    small promoted set of ``n_active`` hosts runs real L2 mutex
    traffic on the object path.  Memory is the quantity under test --
    the harness's RSS-growth and retained-allocation gates are what
    make this scenario a *scaling* check rather than a speed check.
    """
    sim = _make_sim(n_mss, n_mh, seed=61, population_store=True,
                    max_active=max(64, 2 * n_active))
    from repro.scale import CrowdChurn

    churn = CrowdChurn(
        sim.population, sim.scheduler,
        tick=tick, move_fraction=0.01,
        disconnect_fraction=0.002, reconnect_fraction=0.5,
        rng=random.Random(67),
    )
    churn.start()
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=0.3)
    active_ids = [sim.mh_id(i) for i in range(n_active)]
    workload = MutexWorkload(sim.network, mutex, active_ids,
                             request_rate=0.05, rng=random.Random(71))
    sim.run(until=duration)
    churn.stop()
    workload.stop()
    sim.drain()
    resource.assert_no_overlap()
    if churn.moved == 0 or churn.disconnected == 0:
        raise AssertionError("crowd_churn churned nothing")
    if sim.population.active_count > sim.population.max_active:
        raise AssertionError("crowd_churn exceeded the active-set cap")
    return sim.scheduler.events_processed


def cancel_storm(n_events: int = 400_000) -> int:
    """Pure scheduler stress: schedule in waves, cancel most events
    before they fire.  Isolates heap push/pop and the lazy-cancellation
    counter from any protocol logic."""
    sched = Scheduler()
    fired = [0]

    def bump() -> None:
        fired[0] += 1

    rng = random.Random(37)
    pending = []
    for i in range(n_events):
        event = sched.schedule(1.0 + (i % 977) * 0.001, bump)
        pending.append(event)
        if len(pending) >= 64:
            # Cancel ~three quarters of each wave, deterministically.
            for victim in pending:
                if rng.random() < 0.75:
                    victim.cancel()
            pending.clear()
            sched.run(until=sched.now + 0.25)
    sched.drain(max_events=n_events + 1)
    if fired[0] == 0:
        raise AssertionError("cancel_storm fired nothing")
    return sched.events_processed


def scheduler_density(n_pending: int = 20_000,
                      n_events: int = 300_000) -> int:
    """Pure scheduler throughput at high event density.

    Holds ``n_pending`` events in the queue at all times (every fired
    event posts a replacement at a deterministic pseudo-random offset)
    and fires ``n_events`` of them, so the binary heap pays its full
    O(log n_pending) C-level sift comparisons per operation.
    """
    sched = Scheduler()
    rng = random.Random(101)
    uniform = rng.random
    post = sched.post

    def fire() -> None:
        post(uniform() * 100.0 + 0.001, fire)

    for _ in range(n_pending):
        post(uniform() * 100.0, fire)
    sched.run(max_events=n_events)
    if sched.events_processed != n_events:  # pragma: no cover - guard
        raise AssertionError("scheduler_density drained early")
    return sched.events_processed


@dataclass(frozen=True)
class Scenario:
    """One named, deterministic perf workload.

    Attributes:
        name: registry key (also the ``BENCH_*.json`` key).
        description: one-line summary shown by ``--list``.
        run: zero-argument callable; returns events processed.
        smoke: cheap enough for the CI ``perf-smoke`` regression gate.
        tags: free-form labels (``"mutex"``, ``"search"``, ...).
        max_rss_growth_kb: when set, the harness fails the run if RSS
            grows by more than this many KiB across the scenario's
            repeats (a memory gate, not a speed gate).
        max_retained_blocks_per_kevent: when set, the harness fails
            the run if, after ``gc.collect()``, the scenario retained
            more than this many allocated blocks per thousand events
            processed (catches per-MH leaks that RSS alone can hide).
    """

    name: str
    description: str
    run: Callable[[], int]
    smoke: bool = False
    tags: Tuple[str, ...] = field(default=())
    max_rss_growth_kb: Optional[int] = None
    max_retained_blocks_per_kevent: Optional[float] = None


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    if scenario.name in SCENARIOS:  # pragma: no cover - registry bug
        raise ValueError(f"duplicate scenario: {scenario.name}")
    SCENARIOS[scenario.name] = scenario


_register(Scenario(
    name="scale_m10_n200",
    description="bench_scale loaded system at M=10, N=200 "
                "(L2 mutex + mobility)",
    run=lambda: loaded_system(10, 200, 1200.0),
    tags=("mutex", "mobility", "headline"),
))
_register(Scenario(
    name="scale_m16_n320",
    description="bench_scale loaded system at M=16, N=320",
    run=lambda: loaded_system(16, 320, 400.0),
    tags=("mutex", "mobility"),
))
_register(Scenario(
    name="smoke_mutex",
    description="small loaded system (M=6, N=40) for the CI gate",
    run=lambda: loaded_system(6, 40, 2000.0),
    smoke=True,
    tags=("mutex", "mobility", "smoke"),
))
_register(Scenario(
    name="smoke_full_stack",
    description="the smoke_mutex workload under the full default "
                "invariant-monitor set (gated against its "
                "monitors-off twin by the obs-overhead CI job -- see "
                "tools/check_obs_overhead.py)",
    run=lambda: loaded_system(6, 40, 2000.0, monitors=True),
    smoke=True,
    tags=("mutex", "monitor", "obs", "smoke"),
))
_register(Scenario(
    name="smoke_ledger",
    description="the smoke_full_stack workload with per-subsystem "
                "timing capture (scheduler/network/drain/monitor "
                "wall split in subsystem_wall_s)",
    run=lambda: loaded_system(6, 40, 2000.0, monitors=True,
                              capture_timing=True),
    smoke=True,
    tags=("mutex", "monitor", "obs", "smoke"),
))
_register(Scenario(
    name="sched_density_heap",
    description="pure scheduler at 20k pending events, binary heap",
    run=lambda: scheduler_density(20_000, 300_000),
    smoke=True,
    tags=("scheduler", "smoke"),
))
_register(Scenario(
    name="smoke_scale",
    description="array-backed population at N=100k: crowd churn + "
                "16 active hosts, under RSS and allocation gates",
    run=lambda: crowd_churn(64, 100_000, 200.0),
    smoke=True,
    tags=("scale", "mobility", "smoke"),
    # N=100k of array state is ~7 MB; 256 MB of growth headroom
    # catches any accidental fall-back to per-MH python objects
    # (~1 KB each -> ~100 MB+) while staying far above allocator
    # noise on CI runners.
    max_rss_growth_kb=262_144,
    max_retained_blocks_per_kevent=2_000.0,
))
_register(Scenario(
    name="scale_1m",
    description="array-backed population at N=1M (not a smoke test; "
                "see docs/scaling.md for the recipe)",
    run=lambda: crowd_churn(256, 1_000_000, 100.0, tick=20.0),
    tags=("scale", "mobility"),
    max_rss_growth_kb=1_048_576,
    max_retained_blocks_per_kevent=20_000.0,
))
_register(Scenario(
    name="smoke_search",
    description="broadcast-search send_to_mh traffic (M=6, N=30) "
                "for the CI gate",
    run=lambda: search_messaging(6, 30, 600.0, rate=2.0),
    smoke=True,
    tags=("search", "smoke"),
))
_register(Scenario(
    name="smoke_recovery",
    description="MH crash/recovery churn under distance-based "
                "checkpointing (M=6, N=24) for the CI gate",
    run=lambda: recovery_churn(6, 24, 2400.0),
    smoke=True,
    tags=("faults", "recovery", "smoke"),
))
_register(Scenario(
    name="reliable_churn",
    description="lossy links under the reliable transport "
                "(retransmit-timer cancellation churn)",
    run=lambda: reliable_churn(8, 60, 300.0),
    tags=("faults", "reliable"),
))
_register(Scenario(
    name="cancel_storm",
    description="pure scheduler stress: waves of mostly-cancelled "
                "events",
    run=lambda: cancel_storm(400_000),
    tags=("scheduler",),
))


def scenario_names(smoke_only: bool = False) -> List[str]:
    """Registry keys, in registration order."""
    return [
        name for name, scenario in SCENARIOS.items()
        if scenario.smoke or not smoke_only
    ]
