"""Canonical traced scenarios behind the rendered walkthroughs.

Each function builds a small, fully deterministic simulation with
tracing on, runs one protocol episode, and returns a
:class:`ScenarioRun` bundling the simulation, its trace, and the prose
the walkthrough pages embed.  The scenarios are sized to produce
diagrams a reader can actually follow (2-4 MSSs, 2-4 MHs, one or two
protocol executions) while still exercising the exact code paths the
full benchmarks price.

Determinism matters: ``docs/walkthroughs/`` is generated from these
runs and checked in, and CI regenerates it and fails on any diff.  All
latency models here are the constant defaults and every RNG is seeded,
so same code => same trace => same bytes.
Each episode demonstrates one protocol from the paper's Sections 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List

from repro.facade import Simulation
from repro.faults import FaultPlan, LinkFault, MhCrash, MssCrash
from repro.groups.location_view import LocationViewGroup
from repro.mutex import (
    CriticalResource,
    L1Mutex,
    L2Mutex,
    R2Mutex,
    R2Variant,
)
from repro.net.messages import Message
from repro.trace.events import TraceEvent


@dataclass
class ScenarioRun:
    """One finished traced scenario, ready to render."""

    name: str
    title: str
    #: markdown paragraphs introducing the scenario.
    intro: str
    sim: Simulation
    #: markdown bullets of facts worth calling out under the diagram.
    notes: List[str] = field(default_factory=list)

    @property
    def events(self) -> List[TraceEvent]:
        return self.sim.tracer.events


def scenario_l1() -> ScenarioRun:
    """Algorithm L1: Lamport's mutex run by the mobile hosts."""
    sim = Simulation(n_mss=3, n_mh=3, seed=1, trace=True)
    resource = CriticalResource(sim.scheduler)
    mutex = L1Mutex(
        sim.network, sim.mh_ids, resource, cs_duration=1.0, scope="L1"
    )
    mutex.request(sim.mh_id(0))
    sim.drain()
    return ScenarioRun(
        name="l1",
        title="L1: Lamport's algorithm on the mobile hosts",
        intro=(
            "All three participants are MHs, so every one of the "
            "3(N-1) algorithm messages crosses a wireless link twice "
            "(uplink + downlink) and needs a search in between: each "
            "costs `2*C_wireless + C_search`. Watch how much traffic "
            "a single access generates, and where it lands -- on the "
            "battery-powered, low-bandwidth side of the system."
        ),
        sim=sim,
        notes=[
            f"accesses completed: {resource.access_count}",
            "every request/reply/release is MH-to-MH: uplink, search, "
            "downlink",
        ],
    )


def scenario_l2() -> ScenarioRun:
    """Algorithm L2: the same request served by MSS proxies."""
    sim = Simulation(n_mss=3, n_mh=3, seed=1, trace=True)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=1.0, scope="L2")
    mutex.request(sim.mh_id(0))
    sim.drain()
    return ScenarioRun(
        name="l2",
        title="L2: Lamport's algorithm at the support stations",
        intro=(
            "The same single access, but Lamport's algorithm now runs "
            "*unmodified among the M support stations*; the MH only "
            "sends `init`, receives the grant, and sends "
            "`release_resource` -- exactly 3 wireless messages "
            "regardless of N. The `3(M-1)` Lamport messages stay on "
            "the wired network at `C_fixed` each."
        ),
        sim=sim,
        notes=[
            f"accesses completed: {resource.access_count}",
            "the MH's share is three wireless messages: init, grant, "
            "release_resource",
        ],
    )


def scenario_r2_token_list() -> ScenarioRun:
    """R2'' -- the token-list variant, with the list visibly mutating."""
    sim = Simulation(n_mss=3, n_mh=3, seed=1, trace=True)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(
        sim.network,
        resource,
        cs_duration=1.0,
        variant=R2Variant.TOKEN_LIST,
        scope="R2''",
        max_traversals=2,
    )
    mutex.request(sim.mh_id(0))
    mutex.request(sim.mh_id(1))
    mutex.start()
    sim.drain()
    return ScenarioRun(
        name="r2_token_list",
        title="R2'': the token ring with a token_list",
        intro=(
            "The token circulates mss-0 -> mss-1 -> mss-2 -> mss-0 "
            "(`M*C_fixed` per traversal). Two MHs request; each grant "
            "costs search + wireless out, wireless + fixed back. The "
            "`token.arrive` events show the `token_list` at every "
            "hop: arriving at MSS *m* deletes all pairs `(m, _)`, and "
            "every completed access appends `(m, h)` -- so a host "
            "that raced the token around the ring would be refused "
            "at its next cell, even if it lies about its access "
            "count. That is the paper's R2'' robustness argument, "
            "visible hop by hop."
        ),
        sim=sim,
        notes=[
            f"accesses completed: {resource.access_count}",
            "follow token_list in the token.arrive / token.append "
            "events: pruned on arrival, extended on each access",
        ],
    )


def scenario_location_view_move() -> ScenarioRun:
    """LV(G): a group send, then a combined significant move."""
    sim = Simulation(n_mss=4, n_mh=4, seed=1, trace=True)
    members = [sim.mh_id(0), sim.mh_id(1), sim.mh_id(2)]
    group = LocationViewGroup(sim.network, members, scope="group-lv")
    group.send(sim.mh_id(0), payload="hello")
    sim.run(until=5.0)
    # mh-1 is the only member in mss-1's cell; moving it to mss-3
    # (outside the view) is a *combined* significant move: add mss-3,
    # delete mss-1, one change request, one incremental update fan-out.
    sim.mh(1).move_to(sim.mss_id(3))
    sim.drain()
    return ScenarioRun(
        name="location_view_move",
        title="Location view: a significant move updates LV(G)",
        intro=(
            "Three members sit in cells mss-0/mss-1/mss-2, so "
            "LV(G) = {mss-0, mss-1, mss-2} with mss-0 coordinating. "
            "First a group message fans out across the view "
            "(`(|LV|-1)*C_fixed + |G|*C_wireless`). Then mh-1 -- the "
            "*sole* member in mss-1's cell -- moves to mss-3, outside "
            "the view: one combined add+delete change request goes to "
            "the coordinator, which serializes it and distributes a "
            "full copy to the added MSS plus incremental updates to "
            "the rest, within the paper's `(|LV|+3)*C_fixed` bound. "
            "The MH itself spent nothing on any of this."
        ),
        sim=sim,
        notes=[
            f"significant moves: {group.stats.significant_moves} "
            f"(of {group.stats.moves} total)",
            f"final view: {sorted(group.coordinator_view())}",
            "the lv.significant_move event carries both the add and "
            "the delete of the combined case",
        ],
    )


def _keep_payload(into: List[object], message: Message) -> None:
    into.append(message.payload)


def scenario_reliable_retransmit() -> ScenarioRun:
    """The reliable channel recovering one deterministic loss."""
    plan = FaultPlan(
        link_faults=(
            LinkFault(drop=1.0, src="mss-0", dst="mss-1",
                      start=0.0, end=4.0),
        ),
        reliable=True,
        retransmit_timeout=4.0,
        seed=1,
    )
    sim = Simulation(n_mss=2, n_mh=0, seed=1, trace=True,
                     fault_plan=plan)
    received: List[object] = []
    sim.mss(1).register_handler(
        "demo.ping", partial(_keep_payload, received)
    )
    sim.network.send_fixed(
        Message(kind="demo.ping", src="mss-0", dst="mss-1",
                payload="are you there?", scope="demo")
    )
    sim.drain()
    return ScenarioRun(
        name="reliable_retransmit",
        title="Reliable transport: loss, timeout, retransmit, ack",
        intro=(
            "The link mss-0 -> mss-1 drops *everything* until t=4. "
            "The reliable layer wraps the application message in a "
            "`rel.data` envelope (seq 1): the first transmission is "
            "charged and then eaten by the fault injector "
            "(`fault.drop`), the retransmit timer fires at the 4.0 "
            "timeout, the second copy gets through, mss-1 acks and "
            "releases the inner message to its handler in order. "
            "Every physical copy -- original, retransmit, ack -- is a "
            "real `C_fixed` message; that is how `bench_a8` prices "
            "recovery."
        ),
        sim=sim,
        notes=[
            f"payload delivered: {received == ['are you there?']}",
            f"retransmits: {sim.metrics.fault_total('rel.retransmit')}",
            "the rel.send event is the *logical* send; each "
            "send.fixed under it is one physical attempt",
        ],
    )


def scenario_r2_crash_recovery() -> ScenarioRun:
    """R2 surviving an MSS crash: orphans, rejoin, regeneration."""
    plan = FaultPlan(
        crashes=(MssCrash("mss-1", at=0.5, recover_at=40.0),),
        rejoin_delay=5.0,
        seed=1,
    )
    sim = Simulation(n_mss=3, n_mh=3, seed=1, trace=True,
                     fault_plan=plan)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(
        sim.network,
        resource,
        cs_duration=1.0,
        variant=R2Variant.TOKEN_LIST,
        scope="R2''",
        max_traversals=6,
        token_timeout=15.0,
    )
    mutex.request(sim.mh_id(0))
    mutex.request(sim.mh_id(1))
    mutex.start()
    sim.drain()
    return ScenarioRun(
        name="r2_crash_recovery",
        title="R2 crash recovery: losing a station, not the algorithm",
        intro=(
            "mss-1 crashes at t=0.5 -- while the token is in flight "
            "towards it and mh-1's request sits in its queue -- and "
            "stays down until t=40. The trace shows the whole "
            "recovery sequence the counters only summarize: "
            "`fault.mss_crash` orphans mh-1 (`mh.orphaned`), the "
            "token is swallowed by the dead station (`fault.drop` at "
            "t=1), the orphan rejoins elsewhere (`fault.mh_rejoin` "
            "-> `mh.reconnect`) and resubmits its lost request "
            "(`r2.resubmit`), and the leader's watchdog regenerates "
            "the token under a bumped epoch (`r2.regenerate`, epoch "
            "0 -> 1) so any stale copy that later surfaced would be "
            "refused. Every request is eventually served exactly "
            "once."
        ),
        sim=sim,
        notes=[
            f"accesses completed: {resource.access_count}",
            f"token regenerations: {mutex.regenerations}",
            "compare epochs on token.arrive events before and after "
            "the regeneration",
        ],
    )


def scenario_mh_crash_recovery() -> ScenarioRun:
    """An MH crash recovered from a distance-based checkpoint."""
    from repro.recovery import CounterClient

    plan = FaultPlan(
        mh_crashes=(MhCrash("mh-0", at=14.0, recover_at=20.0),),
        seed=1,
    )
    sim = Simulation(n_mss=3, n_mh=2, seed=1, trace=True,
                     fault_plan=plan, recovery="distance:3")
    counter = CounterClient(sim.recovery)
    # One unit of work in the starting cell homes a checkpoint there;
    # two handoffs then drag the checkpoint *pointer* (never the
    # payload) along; a second unit after the moves stays unprotected
    # and is what the crash visibly costs.
    sim.scheduler.post(1.0, counter.note_work, "mh-0")
    sim.scheduler.post(4.0, sim.mh(0).move_to, "mss-1")
    sim.scheduler.post(8.0, sim.mh(0).move_to, "mss-2")
    sim.scheduler.post(11.0, counter.note_work, "mh-0")
    sim.drain()
    return ScenarioRun(
        name="mh_crash_recovery",
        title="MH crash recovery from a distance-based checkpoint",
        intro=(
            "mh-0 performs a unit of recoverable work in mss-0's "
            "cell; the distance-3 policy checkpoints it immediately "
            "(`recovery.checkpoint` -> `recovery.save`, one wireless "
            "uplink) and the payload stays at mss-0. Two handoffs "
            "later the host is at mss-2, and only the tiny checkpoint "
            "*meta* travelled with it, riding the Section 2 handoff "
            "for free -- its trail now reads mss-1, mss-0. At t=14 "
            "the host crashes (`fault.mh_crash`): the second, "
            "never-checkpointed unit of work dies with it. Recovery "
            "at t=20 replays the ordinary reconnect, and the local "
            "meta starts the fetch (`recovery.fetch`, distance 2): "
            "one fixed hop per trail entry walks mss-1 to mss-0, the "
            "home returns the payload to mss-2 (`recovery.payload`), "
            "the checkpoint is *re-homed* there, and one wireless "
            "downlink (`recovery.restore`) reinstates the counter. "
            "The recovery cost is bounded by how far the host moved "
            "since the checkpoint -- never by how long it ran."
        ),
        sim=sim,
        notes=[
            f"checkpoints taken: {sim.recovery.checkpoints_taken}",
            f"restored: {sim.recovery.restored}",
            f"work after recovery: {counter.work['mh-0']} "
            f"(lost to the crash: {counter.lost['mh-0']})",
            "recovery.ckpt prices the overhead while healthy; "
            "recovery.restore prices the fetch walk after the crash",
        ],
    )


#: every canonical scenario, by name (the ``repro trace`` CLI menu).
SCENARIOS: Dict[str, Callable[[], ScenarioRun]] = {
    "l1": scenario_l1,
    "l2": scenario_l2,
    "r2_token_list": scenario_r2_token_list,
    "location_view_move": scenario_location_view_move,
    "reliable_retransmit": scenario_reliable_retransmit,
    "r2_crash_recovery": scenario_r2_crash_recovery,
    "mh_crash_recovery": scenario_mh_crash_recovery,
}


def run_scenario(name: str) -> ScenarioRun:
    """Build and run one canonical scenario by name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}"
        ) from None
    return factory()
