"""Mutation tests: every safety monitor must catch its seeded bug.

Each test pairs a deliberately broken protocol variant (the *mutant*)
with the correct implementation on the same workload and asserts that
the corresponding invariant monitor fires for the mutant and stays
silent for the correct protocol.  This is the acceptance bar for the
monitoring layer: a monitor that never fires is untested code, and a
monitor that fires on correct runs is a false-positive machine.

The mutants live here, not in the library: they subclass the real
protocols and override exactly one decision point (grant scheduling,
eligibility, dedup, ...), so the monitors are exercised against the
real event stream, not synthetic events.
"""

from __future__ import annotations

import pytest

from repro import Simulation
from repro.errors import ProtocolError
from repro.faults import FaultPlan, LinkFault
from repro.groups.location_view import LocationViewGroup
from repro.monitor import (
    LivenessMonitor,
    LocationViewMonitor,
    default_monitors,
    replay_events,
)
from repro.mutex import CriticalResource, L2Mutex, R2Mutex, R2Variant
from repro.mutex.r2 import RingGrantPayload
from repro.mutex.ring_core import Token
from repro.net.messages import Message
from repro.net.reliable import KIND_ACK, RelAck, ReliableTransport


def finalized_invariants(sim):
    """The set of violated invariant ids after finalizing the hub."""
    sim.monitor_hub.finalize()
    return {v.invariant for v in sim.monitor_hub.violations}


# ---------------------------------------------------------------------
# mutex.exclusivity -- overlapping grants
# ---------------------------------------------------------------------

class TolerantResource(CriticalResource):
    """Lets a deliberately broken protocol keep running so the monitor,
    not the in-process oracle, is what catches the overlap."""

    def leave(self, holder):
        if self.holder != holder:
            self.holder = holder
        super().leave(holder)


class OverlappingR2(R2Mutex):
    """Mutant: grants the token to every queued MH at once."""

    def _service_next(self, mss_id):
        if mss_id not in self._tokens:
            return
        queue = self._grant_queues[mss_id]
        token = self._tokens[mss_id]
        if not queue:
            return super()._service_next(mss_id)
        while queue:
            request = queue.pop(0)
            self.network.mss(mss_id).send_to_mh(
                request.mh_id,
                f"{self.scope}.grant",
                RingGrantPayload(
                    request.mh_id, mss_id, token.token_val, token.epoch
                ),
                self.scope,
            )


def run_overlap(cls):
    sim = Simulation(n_mss=2, n_mh=2, seed=1, placement="single_cell",
                     monitors=True)
    resource = TolerantResource(sim.scheduler, raise_on_violation=False)
    mutex = cls(sim.network, resource, cs_duration=1.0, scope="R2",
                max_traversals=2, fault_tolerant=True)
    mutex.request("mh-0")
    mutex.request("mh-1")
    mutex.start()
    sim.drain()
    return sim


def test_overlapping_grants_trip_the_exclusivity_monitor():
    invariants = finalized_invariants(run_overlap(OverlappingR2))
    assert "mutex.exclusivity" in invariants
    assert "mutex.exit_mismatch" in invariants


def test_correct_r2_keeps_the_exclusivity_monitor_silent():
    assert finalized_invariants(run_overlap(R2Mutex)) == set()


# ---------------------------------------------------------------------
# token.uniqueness -- a rogue second token
# ---------------------------------------------------------------------

def run_ring(inject_rogue_token):
    sim = Simulation(n_mss=3, n_mh=2, seed=1, monitors=True)
    resource = CriticalResource(sim.scheduler, raise_on_violation=False)
    mutex = R2Mutex(sim.network, resource, cs_duration=1.0, scope="R2",
                    max_traversals=3)
    mutex.request("mh-0")
    mutex.start()
    if inject_rogue_token:
        sim.scheduler.schedule(
            0.5, lambda: mutex.node("mss-2").inject_token(Token(token_val=1))
        )
    try:
        sim.drain()
    except ProtocolError:
        # Two tokens colliding at one node is itself a protocol error;
        # the monitor must have flagged the split-brain before that.
        pass
    return sim


def test_rogue_token_trips_the_uniqueness_monitor():
    assert "token.uniqueness" in finalized_invariants(run_ring(True))


def test_single_token_keeps_the_uniqueness_monitor_silent():
    assert finalized_invariants(run_ring(False)) == set()


# ---------------------------------------------------------------------
# ring.fairness -- a lying MH double-dips in one traversal (R2')
# ---------------------------------------------------------------------

def run_fairness_dance(cls=R2Mutex, malicious=False,
                       variant=R2Variant.COUNTER, scope="R2'"):
    """The paper's Section 3.4 attack: after its first access, mh-0
    moves to the next MSS on the ring and immediately asks again.  An
    honest MH reports its access count and is deferred to the next
    traversal; a malicious one reports 0 and is served twice at the
    same token_val."""
    sim = Simulation(n_mss=3, n_mh=2, seed=3, placement="single_cell",
                     monitors=True)
    resource = CriticalResource(sim.scheduler)
    mutex = cls(sim.network, resource, cs_duration=1.0, variant=variant,
                scope=scope, max_traversals=4)
    if malicious:
        mutex.malicious_mhs.add("mh-0")
    state = {"moved": False}

    def ask_again():
        mutex.request("mh-0")

    def on_done(mh_id):
        if mh_id == "mh-0" and not state["moved"]:
            state["moved"] = True
            sim.mh(0).add_attach_listener(ask_again)
            sim.mh(0).move_to("mss-1")

    mutex.on_complete = on_done
    mutex.request("mh-0")
    mutex.request("mh-1")
    mutex.start()
    sim.drain()
    return sim


def test_malicious_mh_trips_the_fairness_monitor():
    sim = run_fairness_dance(malicious=True)
    sim.monitor_hub.finalize()
    fairness = [v for v in sim.monitor_hub.violations
                if v.invariant == "ring.fairness"]
    assert fairness, "double service in one traversal went unflagged"
    assert fairness[0].detail["mh"] == "mh-0"


def test_honest_mh_keeps_the_fairness_monitor_silent():
    assert finalized_invariants(run_fairness_dance(malicious=False)) == set()


# ---------------------------------------------------------------------
# token_list.regrant -- R2'' without the membership check
# ---------------------------------------------------------------------

class GreedyR2(R2Mutex):
    """Mutant: ignores the token_list membership rule entirely."""

    def _eligible(self, mss_id, request, token):
        return True


def test_greedy_r2pp_trips_the_token_list_monitor():
    sim = run_fairness_dance(cls=GreedyR2, malicious=False,
                             variant=R2Variant.TOKEN_LIST, scope="R2''")
    invariants = finalized_invariants(sim)
    assert "token_list.regrant" in invariants


def test_correct_r2pp_keeps_the_token_list_monitor_silent():
    sim = run_fairness_dance(malicious=False,
                             variant=R2Variant.TOKEN_LIST, scope="R2''")
    assert finalized_invariants(sim) == set()


# ---------------------------------------------------------------------
# channel.fifo / reliable.exactly_once -- duplicating links
# ---------------------------------------------------------------------

def ping_traffic(sim, n=4):
    sim.network.mss("mss-1").register_handler("ping", lambda m: None)
    for i in range(n):
        sim.scheduler.schedule(
            float(i),
            lambda i=i: sim.network.send_fixed(
                Message(kind="ping", src="mss-0", dst="mss-1",
                        payload={"i": i}, scope="demo")
            ),
        )


def run_duplicating_link(reliable):
    plan = FaultPlan(link_faults=(LinkFault(duplicate=1.0),),
                     reliable=reliable, seed=4)
    sim = Simulation(n_mss=3, n_mh=2, seed=4, fault_plan=plan,
                     monitors=True)
    ping_traffic(sim)
    sim.drain()
    return sim


def test_duplicating_link_trips_the_fifo_monitor():
    assert "channel.fifo" in finalized_invariants(run_duplicating_link(False))


def test_reliable_transport_masks_the_duplicating_link():
    assert finalized_invariants(run_duplicating_link(True)) == set()


class LeakyReliable(ReliableTransport):
    """Mutant: acks and delivers as-is -- no dedup, no reorder buffer."""

    def _on_data(self, message):
        data = message.payload
        self.network._send_fixed_raw(Message(
            kind=KIND_ACK, src=message.dst, dst=message.src,
            payload=RelAck(seq=data.seq), scope=message.scope))
        self._deliver(message.dst, data.inner)


def run_manual_reliable(cls):
    plan = FaultPlan(link_faults=(LinkFault(duplicate=1.0),),
                     reliable=False, seed=4)
    sim = Simulation(n_mss=3, n_mh=2, seed=4, fault_plan=plan,
                     monitors=True)
    rel = cls(sim.network)
    sim.network.reliable = rel
    rel.install()
    ping_traffic(sim)
    sim.drain()
    return sim


def test_leaky_transport_trips_the_exactly_once_monitor():
    invariants = finalized_invariants(run_manual_reliable(LeakyReliable))
    assert "reliable.exactly_once" in invariants


def test_correct_transport_keeps_the_exactly_once_monitor_silent():
    assert finalized_invariants(run_manual_reliable(ReliableTransport)) == set()


# ---------------------------------------------------------------------
# handoff.* -- losing handoff events from a recorded move
# ---------------------------------------------------------------------

def recorded_moves():
    sim = Simulation(n_mss=3, n_mh=2, seed=2, trace=True)
    sim.mh(0).move_to("mss-1")
    sim.run(until=5.0)
    sim.mh(0).move_to("mss-2")
    sim.drain()
    return sim, sim.tracer.events


def test_intact_handoff_trace_replays_clean():
    sim, events = recorded_moves()
    hub = replay_events(events, default_monitors(), network=sim.network)
    assert hub.ok, hub.report()


def test_dropped_join_is_a_lost_mh():
    sim, events = recorded_moves()
    last_join = [e for e in events if e.etype == "mh.join"][-1]
    hub = replay_events([e for e in events if e is not last_join],
                        default_monitors(), network=sim.network)
    invariants = {v.invariant for v in hub.violations}
    assert "handoff.lost_in_transit" in invariants


def test_dropped_leave_breaks_the_lifecycle():
    sim, events = recorded_moves()
    last_leave = [e for e in events if e.etype == "mh.leave"][-1]
    hub = replay_events([e for e in events if e is not last_leave],
                        default_monitors(), network=sim.network)
    invariants = {v.invariant for v in hub.violations}
    assert "handoff.lifecycle" in invariants


# ---------------------------------------------------------------------
# lv.* -- tampering with a location view copy
# ---------------------------------------------------------------------

def run_location_view(tamper):
    sim = Simulation(n_mss=4, n_mh=4, seed=5,
                     monitors=[LocationViewMonitor()])
    group = LocationViewGroup(sim.network, sim.mh_ids, scope="g")
    sim.monitor_hub.monitor(LocationViewMonitor).watch(group)
    group.send("mh-0", payload="x")
    sim.run(until=5.0)
    sim.mh(1).move_to("mss-3")
    sim.drain()
    if tamper:
        group.view_copies[group.coordinator_mss_id].discard(
            sim.network.mobile_host("mh-1").current_mss_id)
    return sim


def test_tampered_view_copy_trips_the_location_view_monitor():
    invariants = finalized_invariants(run_location_view(True))
    assert "lv.coverage" in invariants
    assert "lv.copy_divergence" in invariants


def test_consistent_views_keep_the_location_view_monitor_silent():
    assert finalized_invariants(run_location_view(False)) == set()


# ---------------------------------------------------------------------
# liveness.* -- a ring that never starts, and one that stalls
# ---------------------------------------------------------------------

def test_unserved_request_is_flagged_at_finalize():
    sim = Simulation(n_mss=3, n_mh=2, seed=1,
                     monitors=[LivenessMonitor(request_deadline=5.0,
                                               token_deadline=5.0)])
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, cs_duration=1.0, scope="R2")
    mutex.request("mh-0")  # the ring is never start()ed: no token, ever
    sim.drain()
    invariants = finalized_invariants(sim)
    assert "liveness.request_unserved" in invariants


def test_served_request_keeps_the_liveness_monitor_silent():
    sim = Simulation(n_mss=3, n_mh=2, seed=1,
                     monitors=[LivenessMonitor(request_deadline=5.0,
                                               token_deadline=5.0)])
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource, cs_duration=1.0, scope="L2")
    mutex.request("mh-0")
    sim.drain()
    assert finalized_invariants(sim) == set()


def test_online_deadlines_fire_during_a_stalled_run():
    """Replay the crash-recovery walkthrough under watchdog deadlines
    far tighter than its recovery time: the request-age and
    token-starvation alarms must fire *online* (with event timestamps),
    not just at finalize."""
    from repro.trace.scenarios import run_scenario

    run = run_scenario("r2_crash_recovery")
    monitor = LivenessMonitor(request_deadline=8.0, token_deadline=8.0,
                              stall_gap=1e9)
    replay_events(run.events, [monitor], network=run.sim.network,
                  finalize=False)
    invariants = {v.invariant for v in monitor.violations}
    assert "liveness.request_age" in invariants
    assert "liveness.token_starvation" in invariants
