"""The array-backed population store: promotion, demotion, mass ops.

ROADMAP item 2's correctness story in unit form: promotion restores
exactly the state the object path would have, demotion writes it back
losslessly (the hypothesis round-trip property), the cap never demotes
pinned hosts, and the batched cohort ops keep Section 2's message bill
while staying O(1) in scheduler events and metrics entries.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import tracemalloc
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
from repro.scale.store import PeriodicPlacement, cell_typecode
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


def test_a_placement_cell_past_the_cell_code_is_a_located_error():
    """A cell too large even for the column's typecode stops the copy
    at its host instead of escaping as a bare ``OverflowError``."""
    network = make_sim(n_mss=3, n_mh=0).network
    with pytest.raises(ConfigurationError,
                       match=r"mh-1 in a cell outside \[0, 3\)"):
        PopulationStore(network, 3, [0, 300, 2])


def test_an_int_array_placement_is_adopted_not_copied():
    network = make_sim(n_mss=3, n_mh=0).network
    cells = array("b", [2, 0, 1])
    pop = PopulationStore(network, 3, cells)
    assert pop._cell is cells
    assert pop.passive_local("mh-0", "mss-2")
    assert pop.occupancy() == [1, 1, 1]
    # An array of another code is copied into the cell code, and
    # range-checked like any copied placement.
    wide = array("i", [2, 0, 1])
    copied = PopulationStore(network, 3, wide)._cell
    assert copied is not wide and copied.typecode == "b"
    with pytest.raises(ConfigurationError, match="mh-2 in cell 3"):
        PopulationStore(network, 3, array("i", [2, 0, 3]))


@pytest.mark.parametrize("n_cells, code", [
    (1, "b"), (128, "b"), (129, "h"), (256, "h"), (32_768, "h"),
    (32_769, "i"),
])
def test_the_cell_columns_take_the_narrowest_code_holding_every_cell(
        n_cells, code):
    class Cells:
        def mss_ids(self):
            return [f"mss-{i}" for i in range(n_cells)]

    assert cell_typecode(n_cells) == code
    pop = PopulationStore(Cells(), 0, placement=())
    assert pop._column("_cell").typecode == pop._column(
        "_disc_cell").typecode == code
    # The counters and cohort clocks start one byte wide.
    assert {pop._column(name).typecode for name in (
        "_session", "_moves", "_disc_epoch", "_last_move",
    )} == {"b"}


def test_the_facade_placement_is_built_in_the_cell_code():
    for placement in ("round_robin", "single_cell", "random"):
        pop = make_sim(n_mss=256, n_mh=600, placement=placement).population
        assert pop._column("_cell").typecode == "h"
        assert sum(pop.occupancy()) == 600


def test_periodic_placements_match_their_definition():
    round_robin = make_sim(n_mss=4, n_mh=10).population
    assert all(round_robin.passive_local(f"mh-{i}", f"mss-{i % 4}")
               for i in range(10))
    single = make_sim(n_mss=4, n_mh=10, placement="single_cell").population
    assert single.occupancy() == [10, 0, 0, 0]
    fewer_hosts_than_cells = make_sim(n_mss=4, n_mh=3).population
    assert fewer_hosts_than_cells.occupancy() == [1, 1, 1, 0]
    assert make_sim(n_mss=4, n_mh=0).population.occupancy() == [0] * 4


def test_a_periodic_placement_past_the_network_is_refused():
    network = make_sim(n_mss=3, n_mh=0).network
    for period in (0, 4):
        with pytest.raises(ConfigurationError,
                           match=f"over {period} cells in a network of 3"):
            PopulationStore(network, 5, PeriodicPlacement(period))
    pop = PopulationStore(network, 5, PeriodicPlacement(2))
    assert pop.occupancy() == [3, 2, 0]
    assert list(pop._column("_cell")) == [0, 1, 0, 1, 0]


def test_memory_budget_counts_the_side_tables():
    sim = make_sim(n_mss=16, n_mh=10_000)
    pop = sim.population
    assert pop.memory_bytes() / pop.n <= 7.1
    before = pop.memory_bytes()
    for i in range(50):
        doze_through_a_downlink(sim, sim.mh(i))
    pop.demote_idle()
    assert len(pop._last_seq) == len(pop._doze_ints) == 50
    # Every entry costs at least its key and value.
    assert pop.memory_bytes() >= before + 2 * 50 * 2 * 28
    assert pop.memory_bytes() / pop.n <= 9


@pytest.mark.parametrize("n_mss, budget", [(16, 7.1), (256, 9.1)])
def test_memory_budget_per_host_time_table_included(n_mss, budget):
    """Seven 1-byte columns (the two cell columns 2 bytes from 129
    cells), plus one 8-byte cohort time per churn tick, which the
    tick's move and disconnect share."""
    sim = make_sim(n_mss=n_mss, n_mh=10_000)
    pop = sim.population
    rng = random.Random(13)
    for tick in range(1, 11):
        sim.run(until=5.0 * tick)
        pop.mass_move(0.01, rng)
        pop.mass_disconnect(0.002, rng)
        pop.mass_reconnect(0.5, rng)
    assert list(pop._times) == [5.0 * tick for tick in range(1, 11)]
    assert pop.memory_bytes() / pop.n <= budget


# ----------------------------------------------------------------------
# Unmaterialized columns
# ----------------------------------------------------------------------

COLUMNS = ("_cell", "_flags", "_session", "_disc_cell", "_moves",
           "_disc_epoch", "_last_move")


def materialized(pop):
    return {name for name in COLUMNS if getattr(pop, name) is not None}


def layout(pop):
    """Every column's typecode and bytes (``None`` while unmaterialized),
    the cohort times and the side tables."""
    columns = {}
    for name in COLUMNS + ("_times",):
        column = getattr(pop, name)
        columns[name] = (column if column is None
                         else (column.typecode, column.tobytes()))
    return (columns, dict(pop._last_seq), dict(pop._doze_ints),
            list(pop._active_order), pop.summary())


def test_a_million_host_build_materializes_no_column():
    """Building N=1M writes O(cells + active) memory: no column exists,
    so ``memory_bytes()`` counts only the two empty side tables."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = Simulation(n_mss=256, n_mh=1_000_000, seed=7,
                         population_store=True)
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    pop = sim.population
    assert materialized(pop) == set()
    assert pop.memory_bytes() == 2 * sys.getsizeof({})
    assert built < 1_000_000
    # 1M = 3906 * 256 + 64: the first 64 cells hold one host more.
    assert pop.occupancy() == [3907] * 64 + [3906] * 192


def test_reads_of_unmaterialized_columns_return_the_defaults():
    sim = make_sim(n_mss=4, n_mh=12)
    pop = sim.population
    assert not pop.is_crashed("mh-6")
    assert pop.passive_local("mh-6", "mss-2")
    assert not pop.passive_local("mh-6", "mss-1")
    assert pop.occupancy() == [3, 3, 3, 3]
    mh = pop.promote("mh-6")
    assert (mh.session, mh.moves_completed, mh.last_received_seq,
            mh.doze_interruptions) == (1, 0, 0, 0)
    assert (mh.orphaned, mh.crashed, mh.dozing) == (False, False, False)
    assert mh.current_mss_id == "mss-2" and mh.disconnect_mss_id is None
    assert not pop.owns("mh-6")
    assert not pop.passive_local("mh-6", "mss-2")
    assert pop.occupancy() == [3, 3, 2, 3]
    pop.demote("mh-6")
    # The demoted host's values are the defaults: nothing is written.
    assert materialized(pop) == set()
    assert pop.occupancy() == [3, 3, 3, 3]
    assert pop.owns("mh-6") and pop.passive_local("mh-6", "mss-2")
    single = make_sim(n_mss=4, n_mh=12, placement="single_cell").population
    assert single.promote("mh-7").current_mss_id == "mss-0"
    assert single.occupancy() == [11, 0, 0, 0]
    assert materialized(single) == set()


@pytest.mark.parametrize("name, value", [
    ("_cell", 0), ("_flags", 2), ("_session", 5), ("_disc_cell", 3),
    ("_moves", 200), ("_disc_epoch", 0), ("_last_move", 0),
])
def test_the_first_write_materializes_only_its_own_column(name, value):
    pop = make_sim(n_mss=4, n_mh=12).population
    expected = [pop._get(name, i) for i in range(12)]
    expected[5] = value
    pop._put(name, 5, value)
    assert materialized(pop) == {name}
    # Every other host still reads what it read unmaterialized.
    assert list(getattr(pop, name)) == expected


def test_a_demote_materializes_only_the_columns_its_values_changed():
    sim = make_sim(n_mss=4, n_mh=12)
    pop = sim.population
    sim.mh(3).move_to("mss-0")
    sim.drain()
    pop.demote("mh-3")
    assert materialized(pop) == {"_cell", "_session", "_moves"}
    assert pop.passive_local("mh-3", "mss-0")
    assert pop.promote("mh-3").moves_completed == 1


def test_a_crashed_passive_host_stays_down_through_mass_reconnect():
    sim = make_sim()
    pop = sim.population
    sim.mh(4).crash()
    pop.demote("mh-4")
    assert "_flags" in materialized(pop)
    assert pop.is_crashed("mh-4") and not pop.is_crashed("mh-5")
    assert pop.passive_disconnected == 1
    assert pop.mass_reconnect(1.0, ScriptedRng(4)) == 0
    assert pop.passive_disconnected == 1
    assert pop.promote("mh-4").crashed


def test_a_cohort_clock_built_after_200_ticks_holds_its_tick():
    """Host 0 drops and returns at each of 200 cohort times, so only
    ``_disc_epoch`` exists (and widens at the 129th); the first move at
    the 201st time builds ``_last_move`` already wide enough for it."""
    sim = make_sim()
    pop = sim.population
    for tick in range(1, 201):
        sim.run(until=float(tick))
        assert pop.mass_disconnect(1 / pop.passive_connected,
                                   ScriptedRng(0)) == 1
        assert pop.mass_reconnect(1.0, ScriptedRng(0, 0)) == 1
    assert pop._last_move is None and pop._disc_epoch.typecode == "h"
    sim.run(until=201.0)
    assert pop.mass_move(1 / pop.passive_connected,
                         ScriptedRng(1, 0)) == 1
    assert len(pop._times) == 201
    assert pop._last_move.typecode == "h"
    assert pop._last_move[1] == 200
    assert list(pop._last_move).count(-1) == pop.n - 1


@pytest.mark.parametrize("copier", [
    copy.deepcopy,
    lambda sim: pickle.loads(pickle.dumps(sim)),
], ids=["deepcopy", "pickle"])
def test_a_copied_partly_materialized_store_runs_on_byte_identical(copier):
    def churn(sim, seed):
        pop = sim.population
        rng = random.Random(seed)
        for tick in range(1, 4):
            sim.run(until=sim.scheduler.now + 5.0)
            pop.mass_disconnect(0.1, rng)
            pop.mass_reconnect(0.5, rng)
        sim.mh(7)                                   # promote
        pop.mass_move(0.2, rng)

    original = make_sim(n_mss=4, n_mh=200)
    original.population.mass_disconnect(0.1, random.Random(1))
    assert materialized(original.population) == {
        "_cell", "_disc_cell", "_disc_epoch"}
    fork = copier(original)
    assert layout(fork.population) == layout(original.population)
    churn(original, 2)
    churn(fork, 2)
    assert layout(fork.population) == layout(original.population)
    assert fork.metrics.snapshot() == original.metrics.snapshot()


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


def test_a_move_past_127_widens_the_counters_it_bumps():
    pop = make_sim().population
    pop._column("_session")[3] = pop._column("_moves")[3] = 127
    assert pop.mass_move(1 / pop.passive_connected, ScriptedRng(3, 0)) == 1
    assert pop._session.typecode == pop._moves.typecode == "h"
    assert pop._session[3] == pop._moves[3] == 128
    assert list(pop._session[:3]) == [1, 1, 1]      # the rest copied
    assert pop.promote("mh-3").moves_completed == 128


def test_a_reconnect_past_127_widens_the_session():
    pop = make_sim().population
    pop._column("_session")[3] = 127
    assert pop.mass_disconnect(1 / pop.passive_connected,
                               ScriptedRng(3)) == 1
    assert pop.mass_reconnect(1.0, ScriptedRng(3, 0)) == 1
    assert pop._session.typecode == "h"
    assert pop._session[3] == 128
    assert pop._column("_moves").typecode == "b"


def test_demote_widens_a_column_as_often_as_the_value_needs():
    sim = make_sim()
    pop = sim.population
    sim.mh(5).moves_completed = 40_000
    pop.demote("mh-5")
    assert pop._moves.typecode == "i"               # b -> h -> i
    assert pop._moves[5] == 40_000
    assert pop._column("_session").typecode == "b"
    assert sim.mh(5).moves_completed == 40_000


def test_counter_past_its_column_range_raises_instead_of_wrapping():
    """Past int64 there is no wider column: the write raises and the
    stored value stays."""
    sim = make_sim()
    pop = sim.population
    limit = 2 ** 63 - 1
    pop._put("_session", 3, limit)
    assert pop._session.typecode == "q"
    with pytest.raises(OverflowError):
        pop.mass_move(1 / pop.passive_connected, ScriptedRng(3, 0))
    assert pop._session[3] == limit
    mh = sim.mh(7)
    mh.session = 2 ** 63
    with pytest.raises(OverflowError):
        pop.demote("mh-7")
    assert pop._session[7] == 1 and not pop.owns("mh-7")


def test_the_cohort_clocks_widen_at_the_129th_cohort_time():
    """Host 0 disconnects at the first cohort time; then one host moves
    per time.  Indices 0..127 fit ``b``; the 129th time widens both
    clocks to ``h`` before its index is written, and every index
    written so far survives the copy."""
    sim = make_sim()
    pop = sim.population
    pop.mass_disconnect(1 / pop.passive_connected, ScriptedRng(0))
    last = {}
    for tick in range(1, 129):
        sim.run(until=float(tick))
        host = tick % 11 + 1
        assert pop.mass_move(1 / pop.passive_connected,
                             ScriptedRng(host, 0)) == 1
        last[host] = tick
        assert pop._last_move.typecode == pop._disc_epoch.typecode == (
            "b" if tick < 128 else "h")
    assert len(pop._times) == 129
    assert pop._disc_epoch[0] == 0
    assert {host: pop._last_move[host] for host in last} == last


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
        cells = list(pop._column("_cell"))
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
