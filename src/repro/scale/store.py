"""Struct-of-arrays population store for million-MH simulations.

ROADMAP item 2 ("scale-out to millions of MHs"): the paper's two-tier
structure keeps per-MH state tiny -- a cell, a connectivity flag, a few
counters -- so representing every MH as a full python object is pure
overhead for the *passive crowd* that no protocol is currently talking
to.  :class:`PopulationStore` keeps that crowd in parallel ``array``
buffers (34 bytes per MH instead of ~1 KB of object graph) and
materialises a real :class:`~repro.hosts.mh.MobileHost` only when
something actually touches a host ("promotion").  Promotion is silent
-- no events, no messages, no RNG draws -- so with the abstract search
protocol a run with the store enabled is byte-identical (same event
count, same metrics) to the plain object path at any N small enough to
run both.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, SimulationError, UnknownHostError
from repro.hosts.mh import HostState, MobileHost
from repro.hosts.system import MOBILITY_SCOPE
from repro.scale.stream import FixedHistogram, Welford

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: pseudo-host id under which batched crowd energy is aggregated.
CROWD_ID = "mh-crowd"

_CONNECTED = 0
_DISCONNECTED = 1

_F_ORPHANED = 1
_F_CRASHED = 2
_F_DOZING = 4
_F_PROMOTED = 8


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
        placement: iterable of initial cell indices, one per MH
            (already reduced modulo the cell count).
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
        try:  # array raises OverflowError instead of wrapping
            array("i", [len(self._mss_ids) - 1])
        except OverflowError:
            raise ConfigurationError(
                f"n_mss={len(self._mss_ids)}: more cells than the "
                f"population store's cell column can index"
            ) from None
        self._mss_index: Dict[str, int] = {
            mss_id: i for i, mss_id in enumerate(self._mss_ids)
        }
        self._cell = array("i", placement)
        if len(self._cell) != n:
            raise ConfigurationError(
                f"placement yields {len(self._cell)} cells for {n} MHs"
            )

        def filled(typecode: str, value) -> array:
            return array(typecode, [value]) * n

        self._status = array("b", bytes(n))          # all connected
        self._flags = array("B", bytes(n))
        self._session = filled("i", 1)
        self._disc_cell = filled("i", -1)
        self._moves = filled("i", 0)
        self._disc_epoch = filled("d", -1.0)
        self._last_move = filled("d", -1.0)
        #: ``index -> nonzero value`` side tables (passive hosts only)
        #: for the two fields that nothing but a demotion can set.
        self._last_seq: Dict[int, int] = {}
        self._doze_ints: Dict[int, int] = {}
        self._passive_connected = n
        self._passive_disconnected = 0
        #: promoted ids in promotion order (dict preserves insertion).
        self._active_order: Dict[str, None] = {}
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
        return index >= 0 and not self._flags[index] & _F_PROMOTED

    def all_ids(self) -> List[str]:
        """Every covered id, in index order (O(N) -- avoid in loops)."""
        return [f"mh-{i}" for i in range(self.n)]

    # ------------------------------------------------------------------
    # Passive-state queries (no promotion)
    # ------------------------------------------------------------------

    def is_crashed(self, mh_id: str) -> bool:
        """Crashed flag of a passive MH, read without promoting it."""
        return bool(self._flags[self._index(mh_id)] & _F_CRASHED)

    def passive_local(self, mh_id: str, mss_id: str) -> bool:
        """Whether passive ``mh_id`` is connected in ``mss_id``'s cell."""
        index = self._parse(mh_id)
        if index < 0 or self._flags[index] & _F_PROMOTED:
            return False
        return (
            self._status[index] == _CONNECTED
            and self._mss_ids[self._cell[index]] == mss_id
        )

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
        flags = self._flags[index]
        if flags & _F_PROMOTED:
            return self.network.mobile_host(mh_id)
        network = self.network
        mh = MobileHost(mh_id, network)
        mh.session = self._session[index]
        mh.last_received_seq = self._last_seq.pop(index, 0)
        mh.moves_completed = self._moves[index]
        mh.doze_interruptions = self._doze_ints.pop(index, 0)
        mh.orphaned = bool(flags & _F_ORPHANED)
        mh.crashed = bool(flags & _F_CRASHED)
        mh.dozing = bool(flags & _F_DOZING)
        connected = self._status[index] == _CONNECTED
        mss_id: Optional[str] = None
        # _disc_cell is sticky -- the *last* cell the host disconnected
        # in, mirroring the object path where disconnect_mss_id keeps
        # its value after a reconnect.
        disc = self._disc_cell[index]
        if disc >= 0:
            mh.disconnect_mss_id = self._mss_ids[disc]
        if connected:
            mss_id = self._mss_ids[self._cell[index]]
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
        self._flags[index] = flags | _F_PROMOTED
        self._active_order[mh_id] = None
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
        if not self._flags[index] & _F_PROMOTED:
            raise SimulationError(f"{mh_id} is not promoted")
        network = self.network
        mh = network.mobile_host(mh_id)
        if not self.demotable(mh):
            raise SimulationError(
                f"{mh_id} is not demotable (in transit or carrying "
                f"protocol state)"
            )
        self._session[index] = mh.session
        self._moves[index] = mh.moves_completed
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
        self._flags[index] = flags
        # disconnect_mss_id is sticky on the object path (it survives a
        # reconnect), so persist it for connected hosts too.
        self._disc_cell[index] = (
            self._mss_index[mh.disconnect_mss_id]
            if mh.disconnect_mss_id is not None
            else -1
        )
        if mh.is_connected:
            self._status[index] = _CONNECTED
            self._cell[index] = self._mss_index[mh.current_mss_id]
            network.mss(mh.current_mss_id).local_mhs.discard(mh_id)
            self._passive_connected += 1
        else:
            self._status[index] = _DISCONNECTED
            self._cell[index] = -1
            if mh.disconnect_mss_id is not None:
                network.mss(mh.disconnect_mss_id).disconnected_mhs.discard(
                    mh_id
                )
            self._passive_disconnected += 1
        network.unregister_mh(mh_id)
        self._active_order.pop(mh_id, None)
        # Poison the husk: stale scheduled deliveries see a session
        # mismatch and retry via send_to_mh, which re-promotes.
        mh.session += 1
        self.demotions += 1

    def demote_idle(self) -> int:
        """Demote every currently demotable promoted host."""
        count = 0
        for mh_id in list(self._active_order):
            mh = self.network.mobile_host(mh_id)
            if self.demotable(mh):
                self.demote(mh_id)
                count += 1
        return count

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
        for mh_id in list(self._active_order):
            if excess <= 0 or scanned >= scan_limit:
                break
            scanned += 1
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
    # Each draw is ``rng.randrange(b)`` inlined (docs/scaling.md).

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
        cell = self._cell
        status = self._status
        flags = self._flags
        session = self._session
        moves = self._moves
        last_move = self._last_move
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
            if flags[i] & _F_PROMOTED or status[i] != _CONNECTED:
                continue
            new = getrandbits(others_bits)
            while new >= others:
                new = getrandbits(others_bits)
            if new >= cell[i]:
                new += 1
            cell[i] = new
            session[i] += 1
            moves[i] += 1
            if last_seq:
                last_seq.pop(i, None)
            last = last_move[i]
            if last >= 0.0:
                gap = now - last
                add_interval(gap)
                add_interval_hist(gap)
            last_move[i] = now
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
        now = self.network.scheduler.now
        cell = self._cell
        status = self._status
        flags = self._flags
        disc_cell = self._disc_cell
        disc_epoch = self._disc_epoch
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        dropped = 0
        for _ in range(attempts):
            i = getrandbits(n_bits)
            while i >= n:
                i = getrandbits(n_bits)
            if flags[i] & _F_PROMOTED or status[i] != _CONNECTED:
                continue
            disc_cell[i] = cell[i]
            disc_epoch[i] = now
            cell[i] = -1
            status[i] = _DISCONNECTED
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
        cell = self._cell
        status = self._status
        flags = self._flags
        session = self._session
        disc_cell = self._disc_cell
        disc_epoch = self._disc_epoch
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
            if (
                flags[i] & (_F_PROMOTED | _F_CRASHED)
                or status[i] != _DISCONNECTED
            ):
                continue
            new = getrandbits(cell_bits)
            while new >= n_cells:
                new = getrandbits(cell_bits)
            if new != disc_cell[i]:
                handoffs += 1
            epoch = disc_epoch[i]
            if epoch >= 0.0:
                down = now - epoch
                add_downtime(down)
                add_downtime_hist(down)
            cell[i] = new
            status[i] = _CONNECTED
            session[i] += 1
            if last_seq:
                last_seq.pop(i, None)
            # _disc_cell stays: it mirrors the object path's sticky
            # disconnect_mss_id, which a reconnect does not clear.
            disc_epoch[i] = -1.0
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

    def _note_batch(self, size: int) -> None:
        self.batch_ops += 1
        self.batch_size.add(float(size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy(self) -> List[int]:
        """Passive connected hosts per cell, in cell-index order.

        Counted from the columns on each call (O(N)); nothing in a run
        reads it, so no per-cell tally is kept current.
        """
        counts = [0] * len(self._mss_ids)
        for cell, status, flags in zip(self._cell, self._status, self._flags):
            if status == _CONNECTED and not flags & _F_PROMOTED:
                counts[cell] += 1
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
        """Bytes held by the columns and side tables (objects excluded)."""
        return sum(
            len(buf) * buf.itemsize
            for buf in (
                self._cell, self._status, self._flags, self._session,
                self._disc_cell, self._moves, self._disc_epoch,
                self._last_move,
            )
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
