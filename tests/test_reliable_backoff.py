"""Retransmit backoff shaping: seeded jitter and the max-delay cap.

Un-jittered exponential backoff synchronizes every stranded sender:
after a partition heals they all fire at the same instants, re-creating
the congestion burst the backoff was meant to avoid.  These tests pin
the new ``jitter``/``max_delay`` knobs on :class:`ReliableTransport`
and prove the defaults leave the schedule untouched.
"""

from __future__ import annotations

import random

import pytest

from repro import FaultPlan, LinkFault, Simulation
from repro.errors import SimulationError
from repro.net.messages import Message
from repro.net.reliable import ReliableTransport


def make_transport(**kwargs) -> ReliableTransport:
    sim = Simulation(n_mss=2, n_mh=0, seed=1)
    return ReliableTransport(sim.network, **kwargs)


def test_default_schedule_is_the_plain_exponential():
    transport = make_transport(timeout=4.0, backoff=1.5)
    assert [transport.retransmit_delay(a) for a in range(4)] == [
        4.0, 6.0, 9.0, 13.5,
    ]


def test_max_delay_caps_the_schedule():
    transport = make_transport(timeout=4.0, backoff=2.0, max_delay=10.0)
    assert [transport.retransmit_delay(a) for a in range(5)] == [
        4.0, 8.0, 10.0, 10.0, 10.0,
    ]


def test_jitter_bounds_and_determinism():
    draws_a = [
        make_transport(timeout=4.0, backoff=1.0, jitter=0.25,
                       rng=random.Random(7)).retransmit_delay(0)
        for _ in range(1)
    ]
    transport = make_transport(timeout=4.0, backoff=1.0, jitter=0.25,
                               rng=random.Random(7))
    draws_b = [transport.retransmit_delay(0)]
    assert draws_a == draws_b  # same seed, same jitter draw
    transport = make_transport(timeout=4.0, backoff=1.0, jitter=0.25,
                               rng=random.Random(3))
    for _ in range(200):
        delay = transport.retransmit_delay(0)
        assert 3.0 <= delay <= 5.0  # within +/- 25% of the 4.0 timeout
        assert delay != 4.0  # jitter actually moves the timer


def test_jitter_applies_after_the_cap():
    transport = make_transport(timeout=4.0, backoff=2.0, max_delay=8.0,
                               jitter=0.5, rng=random.Random(11))
    for _ in range(100):
        assert transport.retransmit_delay(10) <= 12.0  # 8.0 * 1.5


def test_zero_jitter_never_consults_the_rng():
    class Exploding(random.Random):
        def random(self):  # pragma: no cover - would fail the test
            raise AssertionError("jitter=0 must not draw randomness")

    transport = make_transport(timeout=4.0, rng=Exploding())
    assert transport.retransmit_delay(2) == 9.0


def test_constructor_validation():
    with pytest.raises(SimulationError, match="jitter"):
        make_transport(jitter=1.0)
    with pytest.raises(SimulationError, match="max_delay"):
        make_transport(timeout=4.0, max_delay=2.0)


def test_fault_plan_threads_the_knobs_to_the_installed_transport():
    plan = FaultPlan(
        link_faults=(LinkFault(drop=0.2),),
        retransmit_timeout=2.0,
        retransmit_jitter=0.1,
        retransmit_max_delay=16.0,
        seed=5,
    )
    sim = Simulation(n_mss=3, n_mh=0, seed=1, fault_plan=plan)
    transport = sim.network.reliable
    assert transport.jitter == 0.1
    assert transport.max_delay == 16.0
    assert transport.timeout == 2.0


def test_jittered_runs_are_seed_deterministic_and_still_deliver():
    """Same plan seed => identical jittered run; delivery still exact."""

    def run():
        plan = FaultPlan(
            link_faults=(LinkFault(drop=0.4, end=30.0),),
            retransmit_timeout=3.0,
            retransmit_jitter=0.3,
            retransmit_max_delay=12.0,
            seed=13,
        )
        sim = Simulation(n_mss=2, n_mh=0, seed=2, fault_plan=plan)
        received = []
        sim.mss(1).register_handler(
            "ping", lambda m: received.append(m.payload)
        )
        for i in range(10):
            sim.scheduler.schedule_at(
                float(i), sim.network.send_fixed,
                Message(kind="ping", src="mss-0", dst="mss-1",
                        payload=i, scope="demo"),
            )
        sim.drain()
        return received, sim.metrics.fault_total("rel.retransmit"), sim.now

    first = run()
    second = run()
    assert first == second
    received, retransmits, _ = first
    assert received == list(range(10))  # FIFO exactly-once held
    assert retransmits > 0  # the lossy window really bit


def test_jitter_desynchronizes_a_partition_heal_storm():
    """Many messages stranded by one partition must not all retransmit
    at the same instants once jitter is on."""

    def retransmit_spread(jitter):
        from repro.faults import Partition

        # mss-0 cut off from everyone until t=20.
        plan = FaultPlan(
            partitions=(Partition(groups=(("mss-0",),
                                          ("mss-1", "mss-2", "mss-3")),
                                  start=0.0, end=20.0),),
            retransmit_timeout=4.0,
            retransmit_jitter=jitter,
            seed=3,
        )
        sim = Simulation(n_mss=4, n_mh=0, seed=2, fault_plan=plan)
        times = []
        original = sim.network.reliable._transmit

        def spy(channel, seq, inner, attempt):
            if attempt > 0:
                times.append(sim.now)
            original(channel, seq, inner, attempt)

        sim.network.reliable._transmit = spy
        for mss_id in sim.mss_ids:
            sim.network.mss(mss_id).register_handler(
                "blk", lambda message: None
            )
        for i in range(8):
            sim.network.send_fixed(
                Message(kind="blk", src="mss-0", dst=f"mss-{1 + i % 3}",
                        payload=i, scope="demo")
            )
        sim.drain()
        return times

    synced = retransmit_spread(0.0)
    jittered = retransmit_spread(0.3)
    # Without jitter the 8 first retransmits land on one instant;
    # with it they spread out.
    assert len(set(synced)) < len(set(jittered))
    assert len(set(jittered)) >= 6
