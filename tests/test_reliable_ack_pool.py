"""Regression: pooled reliable-transport acks must not leak trace ids.

A pooled ack recycled from the free list could re-enter the send
path still carrying the trace id stamped on its previous life -- which would
attach the new ack's receive event to the old ack's causality chain.
The pool's reset hook (``_reset_ack``) must zero the field on release.
Part of the observability pipeline's exactness guarantees (ROADMAP
item 3).
"""

from __future__ import annotations

from repro import FaultPlan, Simulation
from repro.net import ConstantLatency, NetworkConfig
from repro.net.reliable import _blank_ack, _reset_ack


class TestResetHook:
    def test_reset_clears_trace_id_and_payload(self):
        ack = _blank_ack()
        ack.payload = object()
        ack.trace_id = 1234
        _reset_ack(ack)
        assert ack.trace_id is None
        assert ack.payload is None


class TestRecycledAcks:
    def _reliable_sim(self, **sim_kwargs):
        config = NetworkConfig(
            fixed_latency=ConstantLatency(1.0),
            wireless_latency=ConstantLatency(0.5),
        )
        return Simulation(n_mss=2, n_mh=0, seed=1, config=config,
                          fault_plan=FaultPlan(), **sim_kwargs)

    def test_recycled_ack_carries_no_stale_trace_id(self):
        """Acks acquired from the free list start every life with
        trace_id=None, even after a traced life stamped one."""
        sim = self._reliable_sim(trace=True)
        sim.mss(0).register_handler("t.data", lambda m: None)
        sim.mss(1).register_handler("t.data", lambda m: None)
        for i in range(8):
            sim.mss(0).send_fixed("mss-1", "t.data", i, "t")
        sim.drain()
        pool = sim.network.reliable._ack_pool
        assert pool.released > 0, "acks never recycled; test is inert"
        # Drain the free list and inspect every recycled ack directly.
        recycled = [pool.acquire() for _ in range(pool.free_count)]
        assert recycled, "free list empty; test is inert"
        for ack in recycled:
            assert ack.trace_id is None
            assert ack.payload is None

    def test_traced_run_matches_untraced_ack_flow(self):
        """Recycling with tracing on must not change the message flow
        (the stale-id bug surfaced as wrong causality, never as
        different traffic)."""
        def run(**kwargs):
            sim = self._reliable_sim(**kwargs)
            seen = []
            sim.mss(1).register_handler(
                "t.data", lambda m: seen.append(m.payload))
            for i in range(8):
                sim.mss(0).send_fixed("mss-1", "t.data", i, "t")
            sim.drain()
            return seen, sim.metrics.report(sim.cost_model)["totals"]

        untraced = run()
        traced = run(trace=True)
        assert untraced == traced
