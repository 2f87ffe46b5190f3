"""The array-backed population store: promotion, demotion, mass ops.

ROADMAP item 2's correctness story in unit form: promotion restores
exactly the state the object path would have, demotion writes it back
losslessly (the hypothesis round-trip property), the cap never demotes
pinned hosts, and the batched cohort ops keep Section 2's message bill
while staying O(1) in scheduler events and metrics entries.
"""

from __future__ import annotations

import gc
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Simulation
from repro.errors import ConfigurationError, SimulationError
from repro.metrics import Category
from repro.mutex import CriticalResource, L2Mutex
from repro.net.messages import Message
from repro.scale import (
    CROWD_ID,
    CrowdChurn,
    FixedHistogram,
    PopulationStore,
    Welford,
)
from repro.workload import MutexWorkload


def make_sim(n_mss=4, n_mh=12, **kwargs):
    return Simulation(n_mss=n_mss, n_mh=n_mh, seed=7,
                      population_store=True, **kwargs)


class ScriptedRng:
    """``getrandbits`` replays a script, aiming a mass op at chosen hosts
    (the ops draw a host index, then a cell, per attempt; a scripted
    value below the bound is accepted as the draw)."""

    def __init__(self, *values):
        self._values = iter(values)

    def getrandbits(self, _k):
        return next(self._values)


def recount_occupancy(sim):
    """Passive connected hosts per cell, one public query at a time."""
    pop = sim.population
    return [
        sum(pop.passive_local(f"mh-{i}", mss_id) for i in range(pop.n))
        for mss_id in sim.network.mss_ids()
    ]


def assert_connectivity_is_a_recount(sim):
    """``passive_local``, ``occupancy()``, the passive counters and
    promotion all agree with a brute-force recount of connectivity:
    each passive host is local to at most one station, and promoting it
    lands it there (or disconnected where it is local nowhere)."""
    pop = sim.population
    mss_ids = sim.network.mss_ids()
    where = {}
    for i in range(pop.n):
        if pop.owns(f"mh-{i}"):
            local = [mss_id for mss_id in mss_ids
                     if pop.passive_local(f"mh-{i}", mss_id)]
            assert len(local) <= 1
            where[i] = local[0] if local else None
    cells = list(where.values())
    assert pop.occupancy() == [cells.count(mss_id) for mss_id in mss_ids]
    assert pop.passive_connected == len(cells) - cells.count(None)
    assert pop.passive_disconnected == cells.count(None)
    for i, mss_id in where.items():
        mh = sim.mh(i)
        assert mh.is_connected == (mss_id is not None)
        assert mh.current_mss_id == mss_id


def doze_through_a_downlink(sim, mh):
    """One downlink delivered to a dozing ``mh``: sets its
    ``last_received_seq`` and bumps ``doze_interruptions``."""
    mh.register_handler("app.ping", lambda message: None)
    mh.doze()
    sim.network.send_wireless_down(
        mh.current_mss_id, mh.host_id,
        Message(kind="app.ping", src=mh.current_mss_id, dst=mh.host_id),
    )
    sim.drain()
    mh.wake()
    mh.unregister_handler("app.ping")     # clean again: demotable


# ----------------------------------------------------------------------
# Construction and identity
# ----------------------------------------------------------------------

def test_store_starts_fully_passive():
    sim = make_sim()
    pop = sim.population
    assert pop.n == 12
    assert pop.active_count == 0
    assert pop.passive_connected == 12
    assert pop.passive_disconnected == 0
    # round_robin placement: 3 passive hosts per cell.
    assert pop.occupancy() == [3, 3, 3, 3]
    assert pop.memory_bytes() > 0


def test_id_parsing_rejects_aliases():
    pop = make_sim().population
    assert pop.covers("mh-0") and pop.covers("mh-11")
    assert not pop.covers("mh-12")
    assert not pop.covers("mh-01")      # zero-padded alias
    assert not pop.covers("mh--1")
    assert not pop.covers("mss-0")
    assert not pop.covers("mh-")


def test_more_cells_than_the_cell_column_indexes_is_a_located_error():
    class HugeNetwork:
        def mss_ids(self):
            return range(2 ** 31 + 1)       # len() only; never iterated

    with pytest.raises(ConfigurationError, match="n_mss=2147483649"):
        PopulationStore(HugeNetwork(), 0, placement=())


@pytest.mark.parametrize("cells", [[0, -1, 2], [0, 7, 2]])
def test_a_placement_cell_outside_the_network_is_a_located_error(cells):
    """A negative cell would index ``mss_ids`` from the end (or read as
    a disconnected host), and one past the last would only fail later
    in ``occupancy()``; both are refused up front, naming the host."""
    network = make_sim(n_mss=3, n_mh=0).network
    with pytest.raises(ConfigurationError,
                       match=rf"mh-1 in cell {cells[1]}, outside \[0, 3\)"):
        PopulationStore(network, 3, cells)


def test_an_int_array_placement_is_adopted_not_copied():
    network = make_sim(n_mss=3, n_mh=0).network
    cells = array("i", [2, 0, 1])
    pop = PopulationStore(network, 3, cells)
    assert pop._cell is cells
    assert pop.passive_local("mh-0", "mss-2")
    assert pop.occupancy() == [1, 1, 1]


def test_periodic_placements_match_their_definition():
    round_robin = make_sim(n_mss=4, n_mh=10).population
    assert all(round_robin.passive_local(f"mh-{i}", f"mss-{i % 4}")
               for i in range(10))
    single = make_sim(n_mss=4, n_mh=10, placement="single_cell").population
    assert single.occupancy() == [10, 0, 0, 0]
    fewer_hosts_than_cells = make_sim(n_mss=4, n_mh=3).population
    assert fewer_hosts_than_cells.occupancy() == [1, 1, 1, 0]
    assert make_sim(n_mss=4, n_mh=0).population.occupancy() == [0] * 4


def test_memory_budget_is_34_bytes_per_host_side_tables_included():
    sim = make_sim(n_mss=16, n_mh=10_000)
    pop = sim.population
    assert pop.memory_bytes() / pop.n <= 36
    before = pop.memory_bytes()
    for i in range(50):
        doze_through_a_downlink(sim, sim.mh(i))
    pop.demote_idle()
    assert len(pop._last_seq) == len(pop._doze_ints) == 50
    # Every entry costs at least its key and value.
    assert pop.memory_bytes() >= before + 2 * 50 * 2 * 28
    assert pop.memory_bytes() / pop.n <= 36


def test_memory_budget_is_25_bytes_per_host_time_table_included():
    """Seven 4- and 1-byte columns, plus one 8-byte cohort time per
    churn tick, which the tick's move and disconnect share."""
    sim = make_sim(n_mss=16, n_mh=10_000)
    pop = sim.population
    rng = random.Random(13)
    for tick in range(1, 11):
        sim.run(until=5.0 * tick)
        pop.mass_move(0.01, rng)
        pop.mass_disconnect(0.002, rng)
        pop.mass_reconnect(0.5, rng)
    assert list(pop._times) == [5.0 * tick for tick in range(1, 11)]
    assert pop.memory_bytes() / pop.n <= 26


def test_max_active_requires_store():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=2, n_mh=4, max_active=8)


def test_recovery_is_gated_with_store():
    with pytest.raises(ConfigurationError):
        Simulation(n_mss=2, n_mh=4, population_store=True,
                   recovery="per-message")


# ----------------------------------------------------------------------
# Promotion / demotion
# ----------------------------------------------------------------------

def test_promotion_is_transparent_and_counted():
    sim = make_sim()
    pop = sim.population
    mh = sim.mh(5)
    assert mh.is_connected
    assert mh.current_mss_id == "mss-1"
    assert pop.active_count == 1
    assert pop.promotions == 1
    assert not pop.owns("mh-5")
    assert pop.passive_connected == 11
    # The cell's occupancy moved from the arrays to the MSS set.
    assert pop.occupancy()[1] == 2
    assert sim.network.mss("mss-1").is_local("mh-5")


def test_promotion_is_idempotent():
    sim = make_sim()
    a = sim.mh(3)
    b = sim.mh(3)
    assert a is b
    assert sim.population.promotions == 1


def test_passive_queries_do_not_promote():
    sim = make_sim()
    pop = sim.population
    assert sim.network.mss("mss-2").is_local("mh-2")
    assert not sim.network.is_mh_crashed("mh-2")
    assert pop.passive_local("mh-2", "mss-2")
    assert not pop.passive_local("mh-2", "mss-0")
    assert pop.active_count == 0


def test_demote_round_trips_a_moved_host():
    sim = make_sim()
    pop = sim.population
    mh = sim.mh(0)
    mh.move_to("mss-3")
    sim.drain()
    moves, session = mh.moves_completed, mh.session
    pop.demote("mh-0")
    assert pop.owns("mh-0")
    assert pop.active_count == 0
    again = sim.mh(0)
    assert again.moves_completed == moves
    assert again.session == session
    assert again.current_mss_id == "mss-3"


def test_demote_refuses_pinned_hosts():
    sim = make_sim()
    mh = sim.mh(1)
    mh.register_handler("app.x", lambda msg: None)
    assert not sim.population.demotable(mh)
    with pytest.raises(SimulationError):
        sim.population.demote("mh-1")


def test_demote_refuses_in_transit():
    sim = make_sim()
    mh = sim.mh(1)
    mh.move_to("mss-0")          # IN_TRANSIT until drained
    with pytest.raises(SimulationError):
        sim.population.demote("mh-1")
    sim.drain()
    sim.population.demote("mh-1")


def test_active_cap_demotes_oldest_clean():
    sim = Simulation(n_mss=4, n_mh=40, seed=7,
                     population_store=True, max_active=4)
    pop = sim.population
    for i in range(10):
        sim.mh(i)
    assert pop.active_count <= 4
    assert pop.demotions >= 6


def test_pinned_hosts_survive_the_cap():
    sim = Simulation(n_mss=4, n_mh=40, seed=7,
                     population_store=True, max_active=2)
    pop = sim.population
    pinned = sim.mh(0)
    pinned.register_handler("app.x", lambda msg: None)
    for i in range(1, 8):
        sim.mh(i)
    assert not pop.owns("mh-0")
    assert sim.network.mobile_host("mh-0") is pinned


def test_stale_husk_is_poisoned():
    sim = make_sim()
    pop = sim.population
    mh = sim.mh(2)
    session = mh.session
    pop.demote("mh-2")
    assert mh.session == session + 1     # husk poisoned
    fresh = sim.mh(2)
    assert fresh is not mh
    assert fresh.session == session      # array kept the real value


# ----------------------------------------------------------------------
# Hypothesis: promote -> mutate -> demote -> promote is lossless
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["move", "disconnect", "reconnect",
                                   "mass_move", "mass_disconnect",
                                   "mass_reconnect", "promote",
                                   "demote"]),
                  st.integers(min_value=0, max_value=3)),
        max_size=8,
    )
)
def test_promotion_demotion_round_trip_property(ops):
    """``mh-4`` round-trips through demotion while the crowd around it
    churns in bulk and hosts 6..9 are promoted and demoted."""
    sim = make_sim()
    pop = sim.population
    mh = sim.mh(4)
    doze_through_a_downlink(sim, mh)
    for op, cell in ops:
        other = f"mh-{6 + cell}"
        if op == "move" and mh.is_connected:
            if f"mss-{cell}" != mh.current_mss_id:
                mh.move_to(f"mss-{cell}")
        elif op == "disconnect" and mh.is_connected:
            mh.disconnect()
        elif op == "reconnect" and mh.is_disconnected:
            mh.reconnect(f"mss-{cell}", supply_prev=True)
        elif op.startswith("mass_"):
            getattr(pop, op)(0.5, random.Random(cell))
        elif op == "promote":
            sim.network.mobile_host(other)
        elif op == "demote" and not pop.owns(other):
            pop.demote(other)
        sim.drain()
    if mh.is_connected:
        # A move or reconnect zeroed the sequence number: set it again
        # so the side-table column carries a value through demotion.
        doze_through_a_downlink(sim, mh)
        assert mh.last_received_seq > 0
    assert mh.doze_interruptions > 0
    fields = (
        mh.state, mh.current_mss_id, mh.disconnect_mss_id,
        mh.session, mh.last_received_seq, mh.moves_completed,
        mh.doze_interruptions, mh.orphaned, mh.crashed, mh.dozing,
    )
    pop.demote("mh-4")
    again = sim.mh(4)
    assert fields == (
        again.state, again.current_mss_id, again.disconnect_mss_id,
        again.session, again.last_received_seq, again.moves_completed,
        again.doze_interruptions, again.orphaned, again.crashed,
        again.dozing,
    )
    # MSS-side views round-trip too.
    if again.is_connected:
        assert sim.network.mss(again.current_mss_id).is_local("mh-4")
    elif again.disconnect_mss_id is not None:
        station = sim.network.mss(again.disconnect_mss_id)
        assert "mh-4" in station.disconnected_mhs
    assert pop.occupancy() == recount_occupancy(sim)
    # A mass op that lands on the demoted host starts a new session
    # there, which zeroes last_received_seq exactly like the object
    # path's move/reconnect; the doze counter is untouched.
    session, moves = again.session, again.moves_completed
    doze_interruptions = again.doze_interruptions
    was_connected = again.is_connected
    pop.demote("mh-4")
    if was_connected:
        assert pop.mass_move(1 / pop.passive_connected,
                             ScriptedRng(4, 0)) == 1
    else:
        assert pop.mass_reconnect(1 / pop.passive_disconnected,
                                  ScriptedRng(4, 0)) == 1
    final = sim.mh(4)
    assert final.is_connected
    assert final.last_received_seq == 0
    assert final.session == session + 1
    assert final.moves_completed == moves + was_connected
    assert final.doze_interruptions == doze_interruptions
    assert pop.occupancy() == recount_occupancy(sim)
    assert_connectivity_is_a_recount(sim)


# ----------------------------------------------------------------------
# Mass operations
# ----------------------------------------------------------------------

def test_mass_move_updates_arrays_and_bills_section2():
    sim = make_sim(n_mss=4, n_mh=100)
    pop = sim.population
    before = sim.metrics.snapshot()
    moved = pop.mass_move(0.5, random.Random(1))
    assert moved > 0
    delta = sim.metrics.since(before)
    # Section 2 move bill: leave + join uplinks, handoff req + reply.
    assert delta.total(Category.WIRELESS, "mobility") == 2 * moved
    assert delta.total(Category.FIXED, "mobility") == 2 * moved
    assert delta.energy(CROWD_ID) == 2 * moved
    assert sum(pop.occupancy()) == 100
    assert sim.scheduler.pending_count == 0   # no events scheduled


def test_mass_disconnect_then_reconnect_round_trips_counts():
    sim = make_sim(n_mss=4, n_mh=100)
    pop = sim.population
    rng = random.Random(2)
    dropped = pop.mass_disconnect(0.3, rng)
    assert dropped > 0
    assert pop.passive_disconnected == dropped
    assert sum(pop.occupancy()) == 100 - dropped
    rejoined = pop.mass_reconnect(1.0, rng)
    assert 0 < rejoined <= dropped
    assert pop.passive_disconnected == dropped - rejoined
    assert pop.downtime.count == rejoined


def test_counter_past_its_column_range_raises_instead_of_wrapping():
    pop = make_sim().population
    limit = 2 ** (8 * pop._session.itemsize - 1) - 1
    pop._session[3] = limit
    with pytest.raises(OverflowError):
        pop.mass_move(1 / pop.passive_connected, ScriptedRng(3, 0))
    assert pop._session[3] == limit


def test_occupancy_is_a_recount_after_interleaved_ops():
    sim = make_sim(n_mss=4, n_mh=60)
    pop = sim.population
    rng = random.Random(5)
    for round_ in range(6):
        sim.mh(rng.randrange(60))                   # promote
        pop.mass_move(0.3, rng)
        pop.mass_disconnect(0.2, rng)
        if round_ % 2:
            pop.demote_idle()
        pop.mass_reconnect(1.0, rng)
        assert pop.occupancy() == recount_occupancy(sim)
        assert sum(pop.occupancy()) == pop.passive_connected


def test_mass_ops_skip_promoted_hosts():
    sim = make_sim(n_mss=4, n_mh=20)
    pop = sim.population
    mh = sim.mh(0)
    cell_before = mh.current_mss_id
    for seed in range(5):
        pop.mass_move(1.0, random.Random(seed))
    assert mh.current_mss_id == cell_before


def test_crowd_telemetry_stays_bounded():
    sim = make_sim(n_mss=4, n_mh=200)
    pop = sim.population
    rng = random.Random(3)
    for _ in range(10):
        pop.mass_move(0.2, rng)
        pop.mass_disconnect(0.05, rng)
        pop.mass_reconnect(0.5, rng)
    summary = pop.summary()
    assert summary["batch_ops"] == 30
    assert summary["move_interval"]["count"] > 0
    assert summary["downtime"]["count"] > 0
    # Histograms are fixed-size regardless of how much was recorded.
    assert len(pop.move_interval_hist.counts) == \
        len(pop.move_interval_hist.edges)
    # Energy landed on the single crowd pseudo-id, not per-MH entries.
    snap = sim.metrics.snapshot()
    assert set(snap.energy_tx) == {CROWD_ID}


def test_crowd_telemetry_is_exact_at_non_integer_times():
    """A golden of the crowd telemetry: three cohort ticks at 0.1, 2.7
    and 5.3 with a promotion and a demotion between them.  The gaps
    (``2.5999999999999996`` among them) are float64 subtractions of the
    tick times, so a clock column that rounded or stored ``'f'`` would
    move the Welford sums and the histogram bins."""
    sim = make_sim(n_mss=4, n_mh=200)
    pop = sim.population
    rng = random.Random(11)
    sim.run(until=0.1)
    pop.mass_move(0.3, rng)
    pop.mass_disconnect(0.2, rng)
    sim.mh(5)
    sim.mh(150)
    sim.run(until=2.7)
    pop.mass_move(0.3, rng)
    pop.mass_reconnect(1.0, rng)
    pop.mass_disconnect(0.2, rng)
    pop.demote("mh-5")
    sim.run(until=5.3)
    pop.mass_move(0.3, rng)
    pop.mass_reconnect(1.0, rng)
    summary = pop.summary()
    del summary["array_bytes"]
    assert summary == {
        "population": 200, "passive_connected": 158,
        "passive_disconnected": 41, "active": 1, "max_active": 1024,
        "promotions": 2, "demotions": 1, "batch_ops": 7,
        "move_interval": {"count": 34, "mean": 1.988235294117647,
                          "stddev": 1.4183181228405193, "min": 0.0,
                          "max": 5.2},
        "downtime": {"count": 24, "mean": 3.25,
                     "stddev": 1.1258330249197703,
                     "min": 2.5999999999999996, "max": 5.2},
        "batch_size": {"count": 7, "mean": 31.999999999999996,
                       "stddev": 16.04458074954193, "min": 8.0,
                       "max": 60.0},
    }
    assert (pop.move_interval._m2, pop.downtime._m2,
            pop.batch_size._m2) == (68.39529411764705, 30.42000000000001,
                                    1801.9999999999998)
    assert pop.move_interval_hist.counts == [10, 22, 2, 0, 0]
    assert pop.downtime_hist.counts == [18, 6, 0, 0]
    assert pop.move_interval_hist.overflow == pop.downtime_hist.overflow == 0


# ----------------------------------------------------------------------
# CrowdChurn driver
# ----------------------------------------------------------------------

def test_crowd_churn_drives_mass_ops_on_a_tick():
    sim = make_sim(n_mss=4, n_mh=200)
    churn = CrowdChurn(sim.population, sim.scheduler, tick=5.0,
                       move_fraction=0.1, disconnect_fraction=0.05,
                       reconnect_fraction=0.5, rng=random.Random(4))
    churn.start()
    sim.run(until=50.0)
    churn.stop()
    sim.drain()
    assert churn.ticks == 10
    assert churn.moved > 0
    assert churn.disconnected > 0
    assert churn.reconnected > 0
    assert sim.population.active_count == 0


def churned_crowd_events():
    """One N=10,000 crowd run: churn waves against the arrays plus 16
    promoted hosts running L2; returns the events fired."""
    sim = Simulation(n_mss=16, n_mh=10_000, seed=61,
                     population_store=True, max_active=64)
    churn = CrowdChurn(sim.population, sim.scheduler, tick=10.0,
                       move_fraction=0.01, disconnect_fraction=0.002,
                       reconnect_fraction=0.5, rng=random.Random(67))
    churn.start()
    mutex = L2Mutex(sim.network, CriticalResource(sim.scheduler),
                    cs_duration=0.3)
    workload = MutexWorkload(sim.network, mutex,
                             [sim.mh_id(i) for i in range(16)],
                             request_rate=0.05, rng=random.Random(71))
    sim.run(until=200.0)
    churn.stop()
    workload.stop()
    sim.drain()
    assert churn.moved > 0 and churn.disconnected > 0
    return sim.scheduler.events_processed


def test_a_repeated_crowd_run_retains_no_allocations():
    """A finished run gives its memory back: after one warm-up (lazy
    imports, interned strings), a second identical run leaves at most
    50 allocated blocks per thousand events behind.  A per-event leak
    -- an unbounded per-MH dict, a history list that never truncates
    -- reads in the thousands."""
    warm_up = churned_crowd_events()
    gc.collect()
    before = sys.getallocatedblocks()
    events = churned_crowd_events()
    gc.collect()
    retained = sys.getallocatedblocks() - before
    assert events == warm_up
    assert retained / (events / 1000.0) <= 50


def test_crowd_churn_rejects_bad_tick():
    sim = make_sim()
    with pytest.raises(ConfigurationError):
        CrowdChurn(sim.population, sim.scheduler, tick=0.0)


# ----------------------------------------------------------------------
# The cohort draw is randrange
# ----------------------------------------------------------------------

DRAW_BOUNDS = [1, 2, 3, 255, 256, 257, 1_000_000]


@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_inline_draw_is_randrange_draw_for_draw(n):
    """The mass ops' inlined draw against ``Random.randrange``: a CPython
    that changes ``randrange`` fails here, not in a moved golden."""
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        bits = n.bit_length()
        for _ in range(300):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            assert r == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n_mh", DRAW_BOUNDS[:-1])
def test_mass_ops_consume_the_randrange_stream(n_mh):
    """Each mass op moves exactly the hosts a ``randrange`` replay of its
    documented sampling rule picks, and leaves the RNG where it would."""
    for seed in range(5):
        pop = make_sim(n_mss=4, n_mh=n_mh).population
        rng, twin = random.Random(seed), random.Random(seed)
        cells = list(pop._cell)
        for _ in range(round(1.0 * pop.passive_connected)):
            i = twin.randrange(n_mh)
            new = twin.randrange(3)
            cells[i] = new + (new >= cells[i])
        pop.mass_move(1.0, rng)
        assert list(pop._cell) == cells
        down = set()
        for _ in range(round(0.5 * pop.passive_connected)):
            down.add(twin.randrange(n_mh))
        pop.mass_disconnect(0.5, rng)
        assert {i for i in range(n_mh) if pop._cell[i] < 0} == down
        for _ in range(round(1.0 * pop.passive_disconnected)):
            i = twin.randrange(n_mh)
            if i in down:
                down.discard(i)
                cells[i] = twin.randrange(4)
        pop.mass_reconnect(1.0, rng)
        assert [c for i, c in enumerate(pop._cell) if i not in down] == [
            c for i, c in enumerate(cells) if i not in down]
        assert rng.getstate() == twin.getstate()


# ----------------------------------------------------------------------
# Streaming statistics
# ----------------------------------------------------------------------

def test_welford_matches_batch_statistics():
    values = [random.Random(9).uniform(-50, 50) for _ in range(500)]
    w = Welford()
    for v in values:
        w.add(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert w.count == 500
    assert w.mean == pytest.approx(mean)
    assert w.variance == pytest.approx(var)
    assert w.min == min(values) and w.max == max(values)


def test_fixed_histogram_bins_and_overflow():
    h = FixedHistogram((1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0, 5000.0):
        h.add(v)
    assert h.counts == [1, 1, 1]
    assert h.total == 5
    assert h.overflow == 2
    assert h.as_dict()["bins"] == {"<=1": 1, "<=10": 1, "<=100": 1}
    with pytest.raises(ConfigurationError):
        FixedHistogram((5.0, 1.0))
