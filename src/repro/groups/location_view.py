"""Location-view strategy (Section 4.3) -- the paper's contribution.

Instead of per-member locations, the system maintains the *location
view* ``LV(G)``: the set of MSSs that currently have at least one member
of G in their cell.  Each MSS in the view holds a copy of ``LV(G)`` and
the set of members local to its cell.

* A group message costs ``(|LV|-1)*C_fixed + |G|*C_wireless``
  (uplink, fan-out to the view, downlink to every other member): the
  static-network traffic is proportional to |LV|, not |G|.
* Only *significant* moves -- into a cell outside the view, or the sole
  member leaving a view cell -- change ``LV(G)``.  Updates are
  serialized through a fixed *coordinator* MSS, so FIFO fixed channels
  give every copy the same update sequence.  One update costs at most
  ``(|LV|+3)*C_fixed``: the three extras are new-MSS -> previous-MSS,
  previous-MSS -> coordinator, coordinator -> new-MSS.
* A move that is both cases at once (sole member leaves M' for an
  outside cell M) sends one *combined* add+delete request.

The onus of location management thus sits entirely on the static
network: members spend no battery on location updates and may
disconnect without disturbing the bookkeeping.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set

from repro.errors import ConfigurationError
from repro.groups.base import DeliveryEnvelope, GroupStrategy
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class MoveNotice(NamedTuple):
    """New MSS -> previous MSS: 'member arrived here from your cell'."""

    mh_id: str
    new_mss_id: str


class ChangeRequest(NamedTuple):
    """Previous MSS -> coordinator: add and/or delete view entries."""

    add_mss_id: Optional[str]
    delete_mss_id: Optional[str]


class FullCopy(NamedTuple):
    """Coordinator -> newly added MSS: the complete current view."""

    view: frozenset


class IncrementalUpdate(NamedTuple):
    """Coordinator -> view MSSs: one (possibly combined) add+delete.

    A combined significant move (sole member leaves M' for an outside
    cell M) is distributed as a single incremental message per
    recipient, keeping the update within the paper's
    ``(|LV|+3)*C_fixed`` bound."""

    add_mss_id: Optional[str]
    delete_mss_id: Optional[str]


class GroupMessage(NamedTuple):
    """The group payload, fanned out across the view."""

    sender_mh_id: str
    payload: object
    msg_id: int


class LocationViewGroup(GroupStrategy):
    """The location-view strategy with a coordinator MSS."""

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str = "group-lv",
        coordinator_mss_id: Optional[str] = None,
    ) -> None:
        super().__init__(network, members, scope)
        mss_ids = network.mss_ids()
        if coordinator_mss_id is None:
            coordinator_mss_id = mss_ids[0]
        if coordinator_mss_id not in mss_ids:
            raise ConfigurationError(
                f"unknown coordinator: {coordinator_mss_id}"
            )
        self.coordinator_mss_id = coordinator_mss_id
        self.kind_msg = f"{scope}.msg"
        self.kind_fanout = f"{scope}.fanout"
        self.kind_notice = f"{scope}.notice"
        self.kind_change = f"{scope}.change"
        self.kind_full = f"{scope}.full"
        self.kind_incr = f"{scope}.incr"
        #: per-MSS copy of LV(G); only view MSSs (and the coordinator)
        #: hold one.
        self.view_copies: Dict[str, Set[str]] = {}
        #: per-MSS set of group members local to its cell.
        self.local_members: Dict[str, Set[str]] = {
            mss_id: set() for mss_id in mss_ids
        }
        self.max_view_size = 0
        #: optional hook invoked at the coordinator right after a view
        #: addition has been applied and distributed; layered protocols
        #: (e.g. the ordered group) use it to bring the new cell up to
        #: date with whatever they fanned out before the addition.
        self.on_view_add = None
        for mss_id in mss_ids:
            mss = network.mss(mss_id)
            mss.register_handler(self.kind_msg, self._on_group_message)
            mss.register_handler(self.kind_fanout, self._on_fanout)
            mss.register_handler(self.kind_notice, self._on_move_notice)
            mss.register_handler(self.kind_change, self._on_change)
            mss.register_handler(self.kind_full, self._on_full_copy)
            mss.register_handler(self.kind_incr, self._on_incremental)
            mss.add_join_listener(partial(self._on_member_join, mss_id))
        self._bootstrap()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Install the initial view from the members' starting cells
        (part of constructing the system, not of its execution)."""
        view: Set[str] = set()
        for member in self.members:
            mss_id = self.current_mss_of(member)
            if mss_id is None:
                raise ConfigurationError(
                    f"member {member} must be connected at setup"
                )
            view.add(mss_id)
            self.local_members[mss_id].add(member)
        for mss_id in view:
            self.view_copies[mss_id] = set(view)
        self.view_copies.setdefault(self.coordinator_mss_id, set(view))
        self.view_copies[self.coordinator_mss_id] = set(view)
        self.max_view_size = len(view)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def coordinator_view(self) -> Set[str]:
        """The coordinator's (authoritative) copy of LV(G)."""
        return set(self.view_copies[self.coordinator_mss_id])

    def view_size(self) -> int:
        """|LV(G)| according to the coordinator."""
        return len(self.view_copies[self.coordinator_mss_id])

    # ------------------------------------------------------------------
    # Group messages
    # ------------------------------------------------------------------

    def _send(self, sender_mh_id: str, payload: object,
              msg_id: int) -> None:
        mh = self.network.mobile_host(sender_mh_id)
        mh.send_to_mss(
            self.kind_msg,
            GroupMessage(sender_mh_id, payload, msg_id),
            self.scope,
        )

    def _on_group_message(self, message: Message) -> None:
        mss_id = message.dst
        group_message: GroupMessage = message.payload
        copy = self.view_copies.get(mss_id)
        if copy is None:
            # The sender's MSS is not (yet) in the view: deliver what we
            # can locally; the view update is still in flight.
            copy = {mss_id}
        # Sorted so the fan-out order is independent of the process
        # hash seed: runs must be reproducible for a given --seed.
        self.network.fan_out_fixed(
            mss_id, [m for m in sorted(copy) if m != mss_id],
            self.kind_fanout, group_message, self.scope,
        )
        self._deliver_local(mss_id, group_message)
        # A member mid-move may sit outside every fanned-out cell and
        # never be reached by this message: account every non-sender as
        # provisionally missed up front; each actual delivery upgrades
        # its recipient's outcome.  This keeps the exactly-once
        # accounting invariant under arbitrary move/message races.
        for member in self.members:
            if member != group_message.sender_mh_id:
                self._record_missed_provisionally(
                    group_message.msg_id, member
                )

    def _on_fanout(self, message: Message) -> None:
        self._deliver_local(message.dst, message.payload)

    def _deliver_local(
        self, mss_id: str, group_message: GroupMessage
    ) -> None:
        mss = self.network.mss(mss_id)
        for member in sorted(self.local_members[mss_id]):
            if member == group_message.sender_mh_id:
                continue
            if mss.is_local(member):
                self.network.send_wireless_down(
                    mss_id,
                    member,
                    Message(
                        kind=self.kind_deliver,
                        src=mss_id,
                        dst=member,
                        payload=DeliveryEnvelope(
                            group_message.msg_id, group_message.payload
                        ),
                        scope=self.scope,
                    ),
                    # Departed while the frame was on the air: the same
                    # transient as arriving after the member left.
                    on_lost=partial(
                        self._lost_on_air, group_message.msg_id, member
                    ),
                )
            else:
                # The member left this cell (or disconnected) before the
                # move notice arrived -- the transient the paper
                # disregards in its cost accounting.
                self._record_missed(group_message.msg_id, member)

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------

    def _on_member_join(
        self, mss_id: str, mh_id: str, prev_mss_id: Optional[str]
    ) -> None:
        if mh_id not in self.members:
            return
        self.local_members[mss_id].add(mh_id)
        if prev_mss_id is None or prev_mss_id == mss_id:
            return
        # As part of handoff, the new MSS asks the previous MSS to
        # assess the move and notify the coordinator if it was
        # significant.
        self.network.mss(mss_id).send_fixed(
            prev_mss_id,
            self.kind_notice,
            MoveNotice(mh_id, mss_id),
            self.scope,
        )

    def _on_move_notice(self, message: Message) -> None:
        prev_mss_id = message.dst
        notice: MoveNotice = message.payload
        if self.network.mss(prev_mss_id).is_local(notice.mh_id):
            # Stale notice: the member has already bounced back to this
            # cell (a later join overtook the notice for an earlier
            # departure).  Acting on it would wipe the fresh local
            # entry and desynchronize the view from reality.
            return
        self.local_members[prev_mss_id].discard(notice.mh_id)
        my_copy = self.view_copies.get(prev_mss_id, set())
        add_needed = notice.new_mss_id not in my_copy
        delete_needed = not self.local_members[prev_mss_id]
        if not add_needed and not delete_needed:
            return  # insignificant move: no change to LV(G)
        self.stats.significant_moves += 1
        if self.network._trace_on:
            self.network._trace.emit(
                "lv.significant_move",
                scope=self.scope,
                src=prev_mss_id,
                mh_id=notice.mh_id,
                add=notice.new_mss_id if add_needed else None,
                delete=prev_mss_id if delete_needed else None,
            )
        self._send_change(
            prev_mss_id,
            add_mss_id=notice.new_mss_id if add_needed else None,
            delete_mss_id=prev_mss_id if delete_needed else None,
        )

    def _send_change(
        self,
        from_mss_id: str,
        add_mss_id: Optional[str],
        delete_mss_id: Optional[str],
    ) -> None:
        if (
            delete_mss_id is not None
            and delete_mss_id != self.coordinator_mss_id
        ):
            # The deleted MSS leaves the view; drop its copy.  The
            # coordinator keeps its copy even when its own cell leaves
            # the view -- it maintains one for its coordinating role.
            self.view_copies.pop(delete_mss_id, None)
        self.network.mss(from_mss_id).send_fixed(
            self.coordinator_mss_id,
            self.kind_change,
            ChangeRequest(
                add_mss_id=add_mss_id, delete_mss_id=delete_mss_id
            ),
            self.scope,
        )

    # ------------------------------------------------------------------
    # Membership changes (extension)
    # ------------------------------------------------------------------

    def _on_member_added(self, mh_id: str) -> None:
        # A join is like a significant "move in from nowhere" when the
        # newcomer's cell is outside the view.
        mss_id = self.current_mss_of(mh_id)
        self.local_members[mss_id].add(mh_id)
        copy = self.view_copies.get(mss_id)
        if copy is None or mss_id not in copy:
            self._send_change(mss_id, add_mss_id=mss_id,
                              delete_mss_id=None)

    def _on_member_removed(self, mh_id: str) -> None:
        # A leave is like a significant "move out to nowhere" when the
        # leaver was the only member in its cell.
        for mss_id, local in self.local_members.items():
            if mh_id in local:
                local.discard(mh_id)
                copy = self.view_copies.get(mss_id)
                in_view = copy is not None and mss_id in copy
                if not local and in_view:
                    self._send_change(mss_id, add_mss_id=None,
                                      delete_mss_id=mss_id)
                return

    def _on_change(self, message: Message) -> None:
        coordinator = message.dst
        change: ChangeRequest = message.payload
        view = self.view_copies[coordinator]
        if change.delete_mss_id is not None:
            view.discard(change.delete_mss_id)
        if change.add_mss_id is not None:
            view.add(change.add_mss_id)
        self.max_view_size = max(self.max_view_size, len(view))
        if self.network._trace_on:
            self.network._trace.emit(
                "lv.update",
                scope=self.scope,
                src=coordinator,
                add=change.add_mss_id,
                delete=change.delete_mss_id,
                view=sorted(view),
            )
        mss = self.network.mss(coordinator)
        if change.add_mss_id is not None and change.add_mss_id != coordinator:
            # The coordinator's own cell re-entering the view needs no
            # full copy: its authoritative copy is already current, and
            # a self-addressed (asynchronously delivered) snapshot would
            # overwrite concurrent updates applied in the meantime.
            mss.send_fixed(
                change.add_mss_id,
                self.kind_full,
                FullCopy(frozenset(view)),
                self.scope,
            )
        self.network.fan_out_fixed(
            coordinator,
            [m for m in sorted(view)
             if m != coordinator and m != change.add_mss_id],
            self.kind_incr,
            IncrementalUpdate(change.add_mss_id, change.delete_mss_id),
            self.scope,
        )
        if change.add_mss_id is not None and self.on_view_add is not None:
            self.on_view_add(change.add_mss_id)

    def _on_full_copy(self, message: Message) -> None:
        payload: FullCopy = message.payload
        self.view_copies[message.dst] = set(payload.view)

    def _on_incremental(self, message: Message) -> None:
        copy = self.view_copies.get(message.dst)
        if copy is None:
            return  # this MSS already left the view; stale update
        update: IncrementalUpdate = message.payload
        if update.delete_mss_id is not None:
            copy.discard(update.delete_mss_id)
        if update.add_mss_id is not None:
            copy.add(update.add_mss_id)
