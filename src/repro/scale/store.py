"""Struct-of-arrays population store for million-MH simulations.

ROADMAP item 2 ("scale-out to millions of MHs"): the paper's two-tier
structure keeps per-MH state tiny -- a cell, a connectivity flag, a few
counters -- so representing every MH as a full python object is pure
overhead for the *passive crowd* that no protocol is currently talking
to.  :class:`PopulationStore` keeps that crowd in parallel ``array``
buffers (at most 9 bytes per MH at 256 cells instead of ~1 KB of
object graph: the connectivity flag is the sign of the cell, the two
cohort clocks index one table of call times, and every integer column
starts at the narrowest signed typecode holding its values and widens
one step on the first write that does not fit) and
materialises a real :class:`~repro.hosts.mh.MobileHost` only when
something actually touches a host ("promotion").  Promotion is silent
-- no events, no messages, no RNG draws -- so with the abstract search
protocol a run with the store enabled is byte-identical (same event
count, same metrics) to the plain object path at any N small enough to
run both.

A column costs nothing until a host's value in it first differs from
the column's default: until then every read returns the default (the
cell column: the periodic placement's formula), so building an N=1M
store writes O(cells + active hosts) memory, not O(N).

Demotion writes a clean object's state back into the arrays and drops
the object; hosts carrying protocol state (registered handlers, attach
listeners, in-transit moves) are never demoted -- protocols pin their
participants to the object path simply by attaching to them.

Cohort operations (:meth:`mass_move`, :meth:`mass_disconnect`,
:meth:`mass_reconnect`) mutate the arrays directly and record the same
message counts the Section 2 protocol would have charged, aggregated
under the :data:`CROWD_ID` pseudo-host so metrics stay O(1) in N.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional

from repro.errors import ConfigurationError, SimulationError, UnknownHostError
from repro.hosts.mh import HostState, MobileHost
from repro.hosts.system import MOBILITY_SCOPE
from repro.scale.stream import FixedHistogram, Welford

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: pseudo-host id under which batched crowd energy is aggregated.
CROWD_ID = "mh-crowd"

_F_ORPHANED = 1
_F_CRASHED = 2
_F_DOZING = 4

#: the next wider signed typecode; a counter column starts at ``b`` and
#: steps up this ladder on the first write that does not fit.
_WIDER = {"b": "h", "h": "i", "i": "q"}
#: the largest value each signed typecode holds.
_MAX = {code: (1 << (8 * array(code).itemsize - 1)) - 1 for code in "bhiq"}
#: column -> (typecode it is built in, the value every host starts
#: with).  ``_disc_cell`` is built in the cell code, a cohort clock wide
#: enough for every index of ``_times``.
_COLUMNS = {
    "_flags": ("B", 0),
    "_session": ("b", 1),
    "_disc_cell": (None, -1),
    "_moves": ("b", 0),
    "_disc_epoch": ("b", -1),
    "_last_move": ("b", -1),
}
_CLOCKS = ("_disc_epoch", "_last_move")


class PeriodicPlacement(NamedTuple):
    """Host ``i`` starts in cell ``i % period``: ``round_robin`` is the
    period over every cell, ``single_cell`` period 1.  The store keeps
    the formula, not the cells, until its cell column's first write."""

    period: int


def cell_typecode(n_cells: int) -> str:
    """The narrowest signed typecode holding ``-1 .. n_cells - 1``.

    ``b`` up to 128 cells, ``h`` up to 32,768, ``i`` beyond; more
    cells than ``i`` indexes is a :class:`ConfigurationError`.
    """
    for code in "bhi":
        if n_cells - 1 <= _MAX[code]:
            return code
    raise ConfigurationError(
        f"n_mss={n_cells}: more cells than the population store's "
        f"cell column can index"
    )


def _table_bytes(table: Dict[int, int]) -> int:
    """A side table's footprint: the dict plus its int keys and values."""
    size = sys.getsizeof
    return size(table) + sum(size(k) + size(v) for k, v in table.items())


class PopulationStore:
    """Array-backed state for MHs ``mh-0`` .. ``mh-{n-1}``.

    Args:
        network: the network this population lives in (the store
            installs itself via
            :meth:`~repro.net.network.Network.install_population`).
        n: population size.
        placement: initial cell index of each MH, every one in
            ``[0, n_cells)``.  A :class:`PeriodicPlacement` is kept as
            its formula until the first write to the cell column.  An
            ``array`` of the cell column's typecode
            (:func:`cell_typecode`) is adopted, not copied: the store
            takes it over as its cell column, and the caller vouches
            for the range (scanning 1M cells would cost more than the
            rest of the set-up).  Any other iterable is copied and
            checked; a cell outside the range is a
            :class:`ConfigurationError` naming the host.
        max_active: soft cap on simultaneously promoted hosts; when
            exceeded, the store demotes the oldest *clean* promoted
            hosts.  Hosts that protocols attached to are never demoted,
            so the real active set may exceed the cap.
    """

    def __init__(
        self,
        network: "Network",
        n: int,
        placement: Iterable[int],
        max_active: int = 1024,
    ) -> None:
        if n < 0:
            raise ConfigurationError("population size must be nonnegative")
        if max_active < 1:
            raise ConfigurationError("max_active must be >= 1")
        self.network = network
        self.n = n
        self.max_active = max_active
        self._mss_ids: List[str] = network.mss_ids()
        self._cell_code = code = cell_typecode(len(self._mss_ids))
        self._mss_index: Dict[str, int] = {
            mss_id: i for i, mss_id in enumerate(self._mss_ids)
        }
        # The cell column doubles as the connectivity flag: -1 marks a
        # disconnected host, so a host is connected exactly when its
        # cell is >= 0.  While it is unmaterialized (None), host i is
        # in cell i % _period.
        self._cell: Optional[array] = None
        self._period = 1
        if isinstance(placement, PeriodicPlacement):
            if not 0 < placement.period <= len(self._mss_ids):
                raise ConfigurationError(
                    f"periodic placement over {placement.period} cells "
                    f"in a network of {len(self._mss_ids)}"
                )
            self._period = placement.period
        elif isinstance(placement, array) and placement.typecode == code:
            self._cell = placement
        else:
            self._cell = self._copy_cells(placement, code)
            self._check_cells()
        if self._cell is not None and len(self._cell) != n:
            raise ConfigurationError(
                f"placement yields {len(self._cell)} cells for {n} MHs"
            )
        # The columns of _COLUMNS start unmaterialized (None): every
        # host holds the column's default, and the first write of
        # another value builds the column (_column).
        self._flags: Optional[array] = None
        self._session: Optional[array] = None
        self._disc_cell: Optional[array] = None
        self._moves: Optional[array] = None
        #: cohort clocks: indices into ``_times`` (-1 for none) of when
        #: the current disconnection began and when the host last moved.
        self._disc_epoch: Optional[array] = None
        self._last_move: Optional[array] = None
        #: one entry per distinct cohort-call time, ascending.
        self._times = array("d")
        #: ``index -> nonzero value`` side tables (passive hosts only)
        #: for the two fields that nothing but a demotion can set.
        self._last_seq: Dict[int, int] = {}
        self._doze_ints: Dict[int, int] = {}
        self._passive_connected = n
        self._passive_disconnected = 0
        #: promoted host indices in promotion order (dict preserves
        #: insertion); the one record of which hosts are promoted.
        self._active_order: Dict[int, None] = {}
        self.promotions = 0
        self.demotions = 0
        self.batch_ops = 0
        #: streaming crowd telemetry -- O(1) memory regardless of N.
        self.move_interval = Welford()
        self.downtime = Welford()
        self.batch_size = Welford()
        self.move_interval_hist = FixedHistogram(
            (1.0, 5.0, 25.0, 100.0, 500.0)
        )
        self.downtime_hist = FixedHistogram((5.0, 25.0, 100.0, 500.0))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def _copy_cells(self, placement: Iterable[int], code: str) -> array:
        """``placement`` copied into a cell column of typecode ``code``.

        A cell past even the typecode's range stops the copy; the
        hosts copied so far locate it.
        """
        cells = array(code)
        try:
            cells.extend(iter(placement))
        except OverflowError:
            raise ConfigurationError(
                f"placement puts mh-{len(cells)} in a cell outside "
                f"[0, {len(self._mss_ids)})"
            ) from None
        return cells

    def _column(self, name: str) -> array:
        """Column ``name``, materialized at its defaults on first use.

        The cell column is built from the periodic placement, a cohort
        clock in the narrowest code holding every index of ``_times``.
        """
        column = getattr(self, name)
        if column is not None:
            return column
        n = self.n
        if name == "_cell":
            period = self._period
            column = array(self._cell_code, range(period)) * (
                n // period + 1)
            del column[n:]
        else:
            code, value = _COLUMNS[name]
            if code is None:
                code = self._cell_code
            elif name in _CLOCKS:
                while len(self._times) - 1 > _MAX[code]:
                    code = _WIDER[code]
            column = array(code, [value]) * n
        setattr(self, name, column)
        return column

    def _get(self, name: str, index: int) -> int:
        """Host ``index``'s value in column ``name``, read without
        materializing the column."""
        column = getattr(self, name)
        if column is not None:
            return column[index]
        if name == "_cell":
            return index % self._period
        return _COLUMNS[name][1]

    def _check_cells(self) -> None:
        """Refuse a copied placement with a cell outside the network."""
        cells = self._cell
        n_cells = len(self._mss_ids)
        if cells and (min(cells) < 0 or max(cells) >= n_cells):
            index = next(i for i, cell in enumerate(cells)
                         if not 0 <= cell < n_cells)
            raise ConfigurationError(
                f"placement puts mh-{index} in cell {cells[index]}, "
                f"outside [0, {n_cells})"
            )

    def _parse(self, mh_id: str) -> int:
        """Index for ``mh_id``, or -1 when the id is outside the store."""
        if not mh_id.startswith("mh-"):
            return -1
        rest = mh_id[3:]
        if not rest.isdigit():
            return -1
        index = int(rest)
        if index >= self.n or str(index) != rest:
            return -1
        return index

    def covers(self, mh_id: str) -> bool:
        """Whether ``mh_id`` belongs to this population (any state)."""
        return self._parse(mh_id) >= 0

    def owns(self, mh_id: str) -> bool:
        """Whether ``mh_id`` is currently *passive* (array-backed)."""
        index = self._parse(mh_id)
        return index >= 0 and index not in self._active_order

    def all_ids(self) -> List[str]:
        """Every covered id, in index order (O(N) -- avoid in loops)."""
        return [f"mh-{i}" for i in range(self.n)]

    # ------------------------------------------------------------------
    # Passive-state queries (no promotion)
    # ------------------------------------------------------------------

    def is_crashed(self, mh_id: str) -> bool:
        """Crashed flag of a passive MH, read without promoting it."""
        return bool(self._get("_flags", self._index(mh_id)) & _F_CRASHED)

    def passive_local(self, mh_id: str, mss_id: str) -> bool:
        """Whether passive ``mh_id`` is connected in ``mss_id``'s cell."""
        index = self._parse(mh_id)
        if index < 0 or index in self._active_order:
            return False
        cells = self._cell
        cell = index % self._period if cells is None else cells[index]
        return cell >= 0 and self._mss_ids[cell] == mss_id

    def _index(self, mh_id: str) -> int:
        index = self._parse(mh_id)
        if index < 0:
            raise UnknownHostError(f"not in population: {mh_id}")
        return index

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------

    def promote(self, mh_id: str) -> MobileHost:
        """Materialise a passive MH as a full object.

        Silent by construction: restores exactly the state the object
        path would have (including the MSS-side ``local_mhs`` /
        ``disconnected_mhs`` entries) without scheduling events,
        sending messages, or drawing randomness.  The one observable
        side effect is :meth:`Network.notify_mh_joined` for connected
        hosts, which is a no-op under the abstract search protocol and
        lets location-maintaining protocols learn the cell.
        """
        index = self._index(mh_id)
        if index in self._active_order:
            return self.network.mobile_host(mh_id)
        get = self._get
        flags = get("_flags", index)
        network = self.network
        mh = MobileHost(mh_id, network)
        mh.session = get("_session", index)
        mh.last_received_seq = self._last_seq.pop(index, 0)
        mh.moves_completed = get("_moves", index)
        mh.doze_interruptions = self._doze_ints.pop(index, 0)
        mh.orphaned = bool(flags & _F_ORPHANED)
        mh.crashed = bool(flags & _F_CRASHED)
        mh.dozing = bool(flags & _F_DOZING)
        cell = get("_cell", index)
        connected = cell >= 0
        mss_id: Optional[str] = None
        # _disc_cell is sticky -- the *last* cell the host disconnected
        # in, mirroring the object path where disconnect_mss_id keeps
        # its value after a reconnect.
        disc = get("_disc_cell", index)
        if disc >= 0:
            mh.disconnect_mss_id = self._mss_ids[disc]
        if connected:
            mss_id = self._mss_ids[cell]
            mh.state = HostState.CONNECTED
            mh.current_mss_id = mss_id
            network.mss(mss_id).local_mhs.add(mh_id)
            self._passive_connected -= 1
        else:
            if disc >= 0:
                network.mss(self._mss_ids[disc]).disconnected_mhs.add(
                    mh_id
                )
            self._passive_disconnected -= 1
        network.register_mh(mh)
        self._active_order[index] = None
        self.promotions += 1
        if connected:
            network.notify_mh_joined(mh_id, mss_id)
        if len(self._active_order) > self.max_active:
            self._enforce_cap()
        return mh

    def demotable(self, mh: MobileHost) -> bool:
        """Whether ``mh``'s state fits back into the arrays.

        In-transit hosts have a scheduled ``_arrive`` holding the
        object; hosts with registered handlers or attach listeners
        carry protocol state.  Both stay promoted.
        """
        return (
            mh.state is not HostState.IN_TRANSIT
            and not mh._handlers
            and not mh._attach_listeners
        )

    def demote(self, mh_id: str) -> None:
        """Write a clean promoted MH's state back and drop the object.

        Raises :class:`SimulationError` when the host is not demotable
        (see :meth:`demotable`).  The dropped object is poisoned (its
        session is bumped) so any in-flight downlink scheduled against
        it takes the normal lost-message retry path instead of
        delivering into a stale husk.
        """
        index = self._index(mh_id)
        if index not in self._active_order:
            raise SimulationError(f"{mh_id} is not promoted")
        network = self.network
        mh = network.mobile_host(mh_id)
        if not self.demotable(mh):
            raise SimulationError(
                f"{mh_id} is not demotable (in transit or carrying "
                f"protocol state)"
            )
        self._put("_session", index, mh.session)
        self._put("_moves", index, mh.moves_completed)
        # promote() popped this host's entries, so only nonzero
        # values need writing.
        if mh.last_received_seq:
            self._last_seq[index] = mh.last_received_seq
        if mh.doze_interruptions:
            self._doze_ints[index] = mh.doze_interruptions
        flags = 0
        if mh.orphaned:
            flags |= _F_ORPHANED
        if mh.crashed:
            flags |= _F_CRASHED
        if mh.dozing:
            flags |= _F_DOZING
        self._put("_flags", index, flags)
        # disconnect_mss_id is sticky on the object path (it survives a
        # reconnect), so persist it for connected hosts too.
        self._put("_disc_cell", index, (
            self._mss_index[mh.disconnect_mss_id]
            if mh.disconnect_mss_id is not None
            else -1
        ))
        if mh.is_connected:
            self._put("_cell", index, self._mss_index[mh.current_mss_id])
            network.mss(mh.current_mss_id).local_mhs.discard(mh_id)
            self._passive_connected += 1
        else:
            self._put("_cell", index, -1)
            if mh.disconnect_mss_id is not None:
                network.mss(mh.disconnect_mss_id).disconnected_mhs.discard(
                    mh_id
                )
            self._passive_disconnected += 1
        network.unregister_mh(mh_id)
        del self._active_order[index]
        # Poison the husk: stale scheduled deliveries see a session
        # mismatch and retry via send_to_mh, which re-promotes.
        mh.session += 1
        self.demotions += 1

    def _put(self, name: str, index: int, value: int) -> None:
        """``column[index] = value``, widening column ``name`` until the
        value fits.  Writing the value an unmaterialized column already
        reads writes nothing."""
        column = getattr(self, name)
        if column is None:
            if value == self._get(name, index):
                return
            column = self._column(name)
        while True:
            try:
                column[index] = value
                return
            except OverflowError:
                column = self._widen(name)

    def _widen(self, name: str) -> array:
        """Replace column ``name`` by a copy one typecode wider.

        Returns the copy, for the caller's local to rebind to.  A
        column that is already ``q`` raises :class:`OverflowError`:
        a counter past int64 stops the run, it never wraps.
        """
        column = getattr(self, name)
        code = _WIDER.get(column.typecode)
        if code is None:
            raise OverflowError(f"{name} holds a value past int64")
        column = array(code, column)
        setattr(self, name, column)
        return column

    def _enforce_cap(self, scan_limit: int = 64) -> None:
        """Demote the oldest clean promoted hosts down to the cap.

        Scans at most ``scan_limit`` candidates per call so a mostly
        pinned active set cannot turn every promotion into an O(active)
        sweep; the cap is therefore *soft*.
        """
        excess = len(self._active_order) - self.max_active
        if excess <= 0:
            return
        scanned = 0
        for index in list(self._active_order):
            if excess <= 0 or scanned >= scan_limit:
                break
            scanned += 1
            mh_id = f"mh-{index}"
            mh = self.network.mobile_host(mh_id)
            if self.demotable(mh):
                self.demote(mh_id)
                excess -= 1

    @property
    def active_count(self) -> int:
        """Currently promoted hosts."""
        return len(self._active_order)

    # ------------------------------------------------------------------
    # Batched cohort operations
    # ------------------------------------------------------------------
    # Each draw is ``rng.randrange(b)`` inlined (docs/scaling.md).  Each
    # op materializes the columns it writes on entry.

    def mass_move(self, fraction: float, rng: random.Random) -> int:
        """Move passive connected hosts to uniformly chosen *other* cells.

        Draws ``round(fraction * passive_connected)`` indices uniformly
        from all ``n`` hosts, with replacement; a draw that is promoted
        or not connected is skipped, not redrawn.  So about ``fraction *
        passive_connected / n`` of the crowd moves, and a host can move
        twice in a call.  The arrays are updated directly -- no
        leave/join events are scheduled -- and the Section 2 message
        bill (leave + join uplinks, handoff request + reply) is recorded
        in bulk under :data:`CROWD_ID`.  Returns the number of moves.
        """
        n_cells = len(self._mss_ids)
        n = self.n
        if n_cells < 2 or n == 0:
            return 0
        attempts = round(fraction * self._passive_connected)
        if attempts <= 0:
            return 0
        now = self.network.scheduler.now
        tick = self._tick(now)
        times = self._times
        column = self._column
        cell = column("_cell")
        promoted = self._active_order
        session = column("_session")
        moves = column("_moves")
        last_move = column("_last_move")
        last_seq = self._last_seq
        add_interval = self.move_interval.add
        add_interval_hist = self.move_interval_hist.add
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        others = n_cells - 1
        others_bits = others.bit_length()
        moved = 0
        for _ in range(attempts):
            i = getrandbits(n_bits)
            while i >= n:
                i = getrandbits(n_bits)
            old = cell[i]
            if old < 0 or i in promoted:
                continue
            new = getrandbits(others_bits)
            while new >= others:
                new = getrandbits(others_bits)
            if new >= old:
                new += 1
            cell[i] = new
            try:
                session[i] += 1
            except OverflowError:
                session = self._widen("_session")
                session[i] += 1
            try:
                moves[i] += 1
            except OverflowError:
                moves = self._widen("_moves")
                moves[i] += 1
            if last_seq:
                last_seq.pop(i, None)
            last = last_move[i]
            if last >= 0:
                gap = now - times[last]
                add_interval(gap)
                add_interval_hist(gap)
            last_move[i] = tick
            moved += 1
        if moved:
            metrics = self.network.metrics
            metrics.record_wireless_bulk(
                MOBILITY_SCOPE, tx=2 * moved, mh_id=CROWD_ID
            )
            metrics.record_fixed(MOBILITY_SCOPE, count=2 * moved)
        self._note_batch(moved)
        return moved

    def mass_disconnect(self, fraction: float, rng: random.Random) -> int:
        """Disconnect passive connected hosts, sampled as in
        :meth:`mass_move` (one ``disconnect(r)`` uplink each, billed in
        bulk)."""
        n = self.n
        attempts = round(fraction * self._passive_connected)
        if attempts <= 0 or n == 0:
            return 0
        tick = self._tick(self.network.scheduler.now)
        column = self._column
        cell = column("_cell")
        promoted = self._active_order
        disc_cell = column("_disc_cell")
        disc_epoch = column("_disc_epoch")
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        dropped = 0
        for _ in range(attempts):
            i = getrandbits(n_bits)
            while i >= n:
                i = getrandbits(n_bits)
            old = cell[i]
            if old < 0 or i in promoted:
                continue
            disc_cell[i] = old
            disc_epoch[i] = tick
            cell[i] = -1
            dropped += 1
        if dropped:
            self._passive_connected -= dropped
            self._passive_disconnected += dropped
            self.network.metrics.record_wireless_bulk(
                MOBILITY_SCOPE, tx=dropped, mh_id=CROWD_ID
            )
        self._note_batch(dropped)
        return dropped

    def mass_reconnect(self, fraction: float, rng: random.Random) -> int:
        """Reconnect passive disconnected hosts into uniform random cells.

        Draws ``round(fraction * passive_disconnected)`` indices from
        all ``n`` hosts as in :meth:`mass_move`, so only about
        ``fraction * passive_disconnected / n`` of the disconnected
        crowd returns -- far below ``fraction`` while most hosts are
        connected.  Bills one reconnect uplink per host, plus the
        handoff request/reply pair when the new cell differs from the
        disconnect cell (the ``supply_prev=True`` path of Section 2).
        """
        n = self.n
        attempts = round(fraction * self._passive_disconnected)
        if attempts <= 0 or n == 0:
            return 0
        n_cells = len(self._mss_ids)
        now = self.network.scheduler.now
        times = self._times
        column = self._column
        cell = column("_cell")
        promoted = self._active_order
        # Read only: while no host has a flag set, none is crashed.
        flags = self._flags
        session = column("_session")
        disc_cell = column("_disc_cell")
        disc_epoch = column("_disc_epoch")
        last_seq = self._last_seq
        add_downtime = self.downtime.add
        add_downtime_hist = self.downtime_hist.add
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        cell_bits = n_cells.bit_length()
        rejoined = 0
        handoffs = 0
        for _ in range(attempts):
            i = getrandbits(n_bits)
            while i >= n:
                i = getrandbits(n_bits)
            if cell[i] >= 0 or i in promoted or (
                    flags is not None and flags[i] & _F_CRASHED):
                continue
            new = getrandbits(cell_bits)
            while new >= n_cells:
                new = getrandbits(cell_bits)
            if new != disc_cell[i]:
                handoffs += 1
            epoch = disc_epoch[i]
            if epoch >= 0:
                down = now - times[epoch]
                add_downtime(down)
                add_downtime_hist(down)
            cell[i] = new
            try:
                session[i] += 1
            except OverflowError:
                session = self._widen("_session")
                session[i] += 1
            if last_seq:
                last_seq.pop(i, None)
            # _disc_cell stays: it mirrors the object path's sticky
            # disconnect_mss_id, which a reconnect does not clear.
            disc_epoch[i] = -1
            rejoined += 1
        if rejoined:
            self._passive_connected += rejoined
            self._passive_disconnected -= rejoined
            metrics = self.network.metrics
            metrics.record_wireless_bulk(
                MOBILITY_SCOPE, tx=rejoined, mh_id=CROWD_ID
            )
            if handoffs:
                metrics.record_fixed(MOBILITY_SCOPE, count=2 * handoffs)
        self._note_batch(rejoined)
        return rejoined

    def _tick(self, now: float) -> int:
        """Index of ``now`` in ``_times``, appended on its first use.

        The clock never runs backwards, so ``now`` is either the last
        entry (a second op of the same churn tick) or a new one.  A new
        index that does not fit a materialized cohort clock widens it
        first, so the mass ops write it without a check.
        """
        times = self._times
        if times and times[-1] == now:
            return len(times) - 1
        times.append(now)
        tick = len(times) - 1
        for name in _CLOCKS:
            clock = getattr(self, name)
            if clock is not None and tick > _MAX[clock.typecode]:
                self._widen(name)
        return tick

    def _note_batch(self, size: int) -> None:
        self.batch_ops += 1
        self.batch_size.add(float(size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy(self) -> List[int]:
        """Passive connected hosts per cell, in cell-index order.

        Counted from the cell column on each call (O(N)), or from the
        periodic placement while that column is unmaterialized; nothing
        in a run reads it, so no per-cell tally is kept current.
        """
        counts = [0] * len(self._mss_ids)
        cells = self._cell
        if cells is None:
            period = self._period
            counts[:period] = [
                len(range(cell, self.n, period)) for cell in range(period)
            ]
        else:
            for cell in cells:
                if cell >= 0:
                    counts[cell] += 1
        # A promoted host's cell entry is the one it was counted under.
        for index in self._active_order:
            cell = self._get("_cell", index)
            if cell >= 0:
                counts[cell] -= 1
        return counts

    @property
    def passive_connected(self) -> int:
        """Passive hosts currently connected."""
        return self._passive_connected

    @property
    def passive_disconnected(self) -> int:
        """Passive hosts currently disconnected."""
        return self._passive_disconnected

    def memory_bytes(self) -> int:
        """Bytes held by the materialized columns, the cohort time table
        and the side tables (objects excluded)."""
        return sum(
            len(buf) * buf.itemsize
            for buf in (
                self._cell, self._flags, self._session, self._disc_cell,
                self._moves, self._disc_epoch, self._last_move,
                self._times,
            )
            if buf is not None
        ) + _table_bytes(self._last_seq) + _table_bytes(self._doze_ints)

    def summary(self) -> Dict[str, object]:
        """Plain-dict snapshot for the CLI and reports."""
        return {
            "population": self.n,
            "passive_connected": self._passive_connected,
            "passive_disconnected": self._passive_disconnected,
            "active": self.active_count,
            "max_active": self.max_active,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "batch_ops": self.batch_ops,
            "array_bytes": self.memory_bytes(),
            "move_interval": self.move_interval.as_dict(),
            "downtime": self.downtime.as_dict(),
            "batch_size": self.batch_size.as_dict(),
        }
