"""Tests for the structured trace layer (``repro.trace``).

The two properties that matter most:

* tracing off (the default) is *exactly* the seed behaviour -- zero
  extra messages, identical cost totals, identical randomness;
* tracing on is a pure observer -- the same totals again, plus a
  causally-linked event stream whose content matches what the
  protocols actually did (locked in hop-by-hop for R2'').
"""

from __future__ import annotations

import json

import pytest

from repro import (
    CriticalResource,
    FaultPlan,
    L2Mutex,
    MssCrash,
    R2Mutex,
    R2Variant,
    Simulation,
    to_chrome,
    to_jsonl,
    to_mermaid,
)
from repro.trace import NULL_TRACER, Tracer
from repro.trace.walkthroughs import TOUR, traced_run


def trace_of(name):
    """The kept trace of a run of the builtin scenario ``name``."""
    return traced_run(name).sim.tracer.events


def run_l2_once(trace: bool):
    sim = Simulation(n_mss=3, n_mh=3, seed=7, trace=trace)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource)
    mutex.request("mh-0")
    sim.mh(0).move_to("mss-2")
    sim.drain()
    return sim


def run_r2_crash(trace: bool):
    plan = FaultPlan(
        crashes=(MssCrash("mss-1", at=0.5, recover_at=40.0),), seed=3
    )
    sim = Simulation(n_mss=3, n_mh=3, seed=3, trace=trace,
                     fault_plan=plan)
    resource = CriticalResource(sim.scheduler)
    mutex = R2Mutex(sim.network, resource, variant=R2Variant.TOKEN_LIST,
                    max_traversals=6, token_timeout=15.0)
    mutex.request("mh-0")
    mutex.request("mh-1")
    mutex.start()
    sim.drain()
    return sim


class TestNoOpGuarantee:
    def test_network_trace_defaults_to_null(self):
        sim = Simulation(n_mss=2, n_mh=1, seed=0)
        assert sim.network.trace is NULL_TRACER
        assert sim.tracer is None
        assert not sim.network.trace.enabled

    def test_null_tracer_emit_and_context_are_inert(self):
        assert NULL_TRACER.emit("anything", src="x") is None
        with NULL_TRACER.context(5):
            assert NULL_TRACER.emit("inner") is None

    @pytest.mark.parametrize("runner", [run_l2_once, run_r2_crash])
    def test_identical_totals_with_and_without_tracing(self, runner):
        plain = runner(trace=False)
        traced = runner(trace=True)
        a = plain.metrics.snapshot()
        b = traced.metrics.snapshot()
        assert a.counts == b.counts
        assert a.energy_tx == b.energy_tx
        assert a.energy_rx == b.energy_rx
        assert a.faults == b.faults
        assert plain.cost() == traced.cost()
        assert plain.now == traced.now
        assert traced.tracer.events  # and it actually recorded

    def test_scenarios_never_touch_the_scheduler(self):
        # Same scenario twice must give byte-identical traces: any
        # hidden RNG or scheduler interaction would break this.
        for name in TOUR:
            assert to_jsonl(trace_of(name)) == to_jsonl(trace_of(name)), name


class TestCausality:
    def test_ids_are_monotonic_and_parents_precede(self):
        sim = run_l2_once(trace=True)
        events = sim.tracer.events
        ids = [e.id for e in events]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        by_id = {e.id: e for e in events}
        for event in events:
            if event.parent_id is not None:
                assert event.parent_id in by_id
                assert by_id[event.parent_id].time <= event.time

    def test_recv_parents_to_its_send(self):
        sim = run_l2_once(trace=True)
        by_id = {e.id: e for e in sim.tracer.events}
        recvs = [e for e in sim.tracer.events if e.etype == "recv"]
        assert recvs
        for recv in recvs:
            parent = by_id[recv.parent_id]
            assert parent.etype.startswith(("send.", "rel.send"))
            assert parent.kind == recv.kind

    def test_handler_events_parent_to_the_recv(self):
        sim = run_l2_once(trace=True)
        events = sim.tracer.events
        by_id = {e.id: e for e in events}
        enters = [e for e in events if e.etype == "cs.enter"]
        assert enters
        # The CS entry is caused by receiving the grant.
        parent = by_id[enters[0].parent_id]
        assert parent.etype == "recv"
        assert parent.kind.endswith(".grant")

    def test_tracer_context_stack(self):
        tracer = Tracer(Simulation(n_mss=1, n_mh=0).scheduler)
        outer = tracer.emit("outer")
        with tracer.context(outer):
            inner = tracer.emit("inner")
        after = tracer.emit("after")
        by_id = {e.id: e for e in tracer.events}
        assert by_id[inner].parent_id == outer
        assert by_id[after].parent_id is None


class TestR2TokenListTrace:
    """Acceptance: the R2'' walkthrough trace shows every token hop
    with matching token_list mutations."""

    def test_every_hop_recorded_with_consistent_mutations(self):
        events = trace_of("r2_token_list")
        arrivals = [e for e in events if e.etype == "token.arrive"]
        appends = [e for e in events if e.etype == "token.append"]
        assert len(arrivals) >= 6  # two traversals over three MSSs
        # Hop-by-hop: arrival at MSS m prunes exactly the (m, _) pairs.
        for arrival in arrivals:
            before = arrival.detail["token_list_before"]
            after = arrival.detail["token_list"]
            assert after == [p for p in before if p[0] != arrival.src]
        # Each completed access appends its (mss, mh) pair, and the
        # appended state is what the next hop departs with.
        assert sorted(tuple(a.detail["pair"]) for a in appends) == [
            ("mss-0", "mh-0"), ("mss-1", "mh-1"),
        ]
        state = []
        for event in events:
            if event.etype == "token.arrive":
                assert event.detail["token_list_before"] == state
                state = event.detail["token_list"]
            elif event.etype == "token.append":
                state = event.detail["token_list"]

    def test_token_values_increment_per_traversal(self):
        events = trace_of("r2_token_list")
        arrivals = [e for e in events if e.etype == "token.arrive"]
        ring = [a.src for a in arrivals]
        assert ring[0] == "mss-0"
        vals = [a.detail["token_val"] for a in arrivals]
        assert vals == sorted(vals)

    def test_crash_recovery_trace_shows_epoch_bump(self):
        events = trace_of("r2_crash_recovery")
        etypes = [e.etype for e in events]
        for expected in ("fault.mss_crash", "mh.orphaned",
                         "fault.mh_rejoin", "mh.reconnect",
                         "r2.resubmit", "r2.regenerate"):
            assert expected in etypes, expected
        epochs = [e.detail["epoch"] for e in events
                  if e.etype == "token.arrive"]
        assert 0 in epochs and 1 in epochs
        assert epochs == sorted(epochs)


class TestExporters:
    def test_jsonl_is_parseable_and_complete(self):
        events = trace_of("l2")
        lines = to_jsonl(events).splitlines()
        assert len(lines) == len(events)
        records = [json.loads(line) for line in lines]
        assert [r["id"] for r in records] == [e.id for e in events]
        assert all("t" in r and "type" in r and "scope" in r
                   for r in records)

    def test_chrome_export_has_tracks_and_flows(self):
        events = trace_of("l2")
        doc = json.loads(to_chrome(events))
        records = doc["traceEvents"]
        names = {r["args"]["name"] for r in records
                 if r.get("ph") == "M"}
        assert {"mh-0", "mss-0", "mss-1", "mss-2"} <= names
        sends = [r for r in records if r.get("ph") == "s"]
        finishes = [r for r in records if r.get("ph") == "f"]
        assert sends and finishes
        assert {f["id"] for f in finishes} <= {s["id"] for s in sends}

    def test_mermaid_arrows_notes_and_cost_tags(self):
        events = trace_of("l2")
        diagram = to_mermaid(events, title="demo")
        assert diagram.startswith("sequenceDiagram")
        assert "    title demo" in diagram
        assert "mh-0->>mss-0: L2.init [C_wireless]" in diagram
        assert "mss-0->>mss-1: L2.request [C_fixed]" in diagram
        assert "Note over mh-0: enters CS" in diagram

    def test_mermaid_truncation_is_explicit(self):
        events = trace_of("r2_crash_recovery")
        diagram = to_mermaid(events, max_steps=5)
        assert len([l for l in diagram.splitlines()
                    if "->>" in l or "--x" in l or "Note over" in l
                    ]) <= 6  # 5 steps + the truncation note
        assert "further steps truncated" in diagram

    def test_mermaid_marks_lost_messages(self):
        events = trace_of("reliable_retransmit")
        diagram = to_mermaid(events)
        assert "mss-0--xmss-1" in diagram       # the dropped copy
        assert "mss-0->>mss-1" in diagram       # the successful one
