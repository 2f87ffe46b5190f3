"""Totally ordered group messaging over the location view.

Section 4 of the paper separates *group communication* (delivery
semantics: reliability, ordering) from *group location* (where the
members are) and contributes the location view for the latter.  This
module closes the loop: it composes the location view with the
sequencing idea of the paper's reference [1] to provide **total order
+ exactly-once** delivery whose fan-out traffic is proportional to
|LV(G)|, not to M (as the all-MSS flooding of
:mod:`repro.multicast` is) nor to |G| (as per-member directories are).

Design, and the contrast with :class:`~repro.multicast.ExactlyOnceMulticast`:

* the group's coordinator MSS doubles as the *sequencer*: it stamps
  each message with a sequence number, appends it to its history, and
  fans it out to the MSSs in its copy of LV(G);
* ordering state lives **at the member MH** (expected sequence number
  plus a holdback queue), so it travels with the host for free --
  no handoff choreography needed (the multicast keeps its counters at
  the MSSs and must hand them off);
* a member that missed messages while mid-move detects the gap from
  the next delivery (or from the *sync* its new cell requests from the
  coordinator on every join) and asks the coordinator to resend --
  a classic negative-acknowledgement repair.

Cost per message: ``C_w`` uplink + at most one fixed hop to the
sequencer + ``(|LV|-1) C_f`` fan-out + one ``C_w`` per receiving
member; repairs and syncs cost a constant number of messages each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.groups.location_view import LocationViewGroup
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class Publish(NamedTuple):
    """Member -> sequencer: order and distribute this payload."""

    sender_mh_id: str
    payload: object


class Sequenced(NamedTuple):
    """Sequencer -> view MSSs -> members: message ``seq``."""

    seq: int
    sender_mh_id: str
    payload: object


class RepairRequest(NamedTuple):
    """Member -> (MSS ->) sequencer: resend these sequence numbers."""

    mh_id: str
    missing: Tuple[int, ...]
    reply_mss_id: str


class SyncRequest(NamedTuple):
    """New cell -> sequencer: what is the latest sequence number?"""

    mh_id: str
    reply_mss_id: str


@dataclass
class _MemberState:
    """Ordering state carried by (conceptually *on*) the member MH."""

    expected: int = 1
    holdback: Dict[int, Sequenced] = field(default_factory=dict)


class OrderedGroup:
    """Total-order, exactly-once group messaging on a location view.

    Args:
        network: the simulated system.
        members: the group (fixed membership).
        scope: metrics scope for ordering traffic; the underlying
            location view's maintenance runs under ``{scope}-view``.

    The view's coordinator, the first registered MSS, is the sequencer.
    """

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str = "group-ord",
    ) -> None:
        self.network = network
        self.members = list(members)
        self.scope = scope
        #: the location view provides membership locations; its
        #: maintenance traffic is accounted separately.
        self.view = LocationViewGroup(
            network, members, scope=f"{scope}-view"
        )
        self.coordinator_mss_id = self.view.coordinator_mss_id
        self.kind_publish = f"{scope}.publish"
        self.kind_submit = f"{scope}.submit"
        self.kind_fanout = f"{scope}.fanout"
        self.kind_deliver = f"{scope}.deliver"
        self.kind_nack = f"{scope}.nack"
        self.kind_repair = f"{scope}.repair"
        self.kind_sync_req = f"{scope}.sync_req"
        self.kind_sync_rsp = f"{scope}.sync_rsp"
        self.kind_sync = f"{scope}.sync"
        self.kind_cell_sync = f"{scope}.cell_sync"
        # Messages sequenced while a view addition is in flight never
        # reach the new cell's members; the coordinator brings the cell
        # up to date the moment it applies the addition.
        self.view.on_view_add = self._on_view_add
        self._next_seq = 0
        #: full message history at the sequencer (see class docstring).
        self.history: Dict[int, Sequenced] = {}
        self._states: Dict[str, _MemberState] = {
            member: _MemberState() for member in members
        }
        #: (time, member, seq, payload) per in-order delivery.
        self.delivered: List[Tuple[float, str, int, object]] = []
        self.repairs_requested = 0
        for mss_id in network.mss_ids():
            mss = network.mss(mss_id)
            mss.register_handler(self.kind_publish, self._on_publish)
            mss.register_handler(self.kind_submit, self._on_submit)
            mss.register_handler(self.kind_fanout, self._on_fanout)
            mss.register_handler(self.kind_nack, self._on_nack_uplink)
            mss.register_handler(self.kind_repair, self._on_repair)
            mss.register_handler(self.kind_sync_req, self._on_sync_req)
            mss.register_handler(self.kind_sync_rsp, self._on_sync_rsp)
            mss.register_handler(self.kind_cell_sync, self._on_cell_sync)
            mss.add_join_listener(partial(self._on_member_join, mss_id))
        for member in members:
            mh = network.mobile_host(member)
            mh.register_handler(self.kind_deliver, self._on_deliver)
            mh.register_handler(self.kind_sync, self._on_sync)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def send(self, sender_mh_id: str, payload: object) -> None:
        """Publish ``payload`` to the group in total order."""
        if sender_mh_id not in self.members:
            raise ConfigurationError(
                f"{sender_mh_id} is not a group member"
            )
        mh = self.network.mobile_host(sender_mh_id)
        mh.send_to_mss(
            self.kind_publish, Publish(sender_mh_id, payload), self.scope
        )

    def delivered_seqs(self, mh_id: str) -> List[int]:
        """Sequence numbers delivered to ``mh_id`` in delivery order."""
        return [seq for (_, m, seq, _) in self.delivered if m == mh_id]

    @property
    def messages_sent(self) -> int:
        """Messages sequenced so far."""
        return self._next_seq

    # ------------------------------------------------------------------
    # Sequencer side
    # ------------------------------------------------------------------

    def _on_publish(self, message: Message) -> None:
        mss_id = message.dst
        if mss_id == self.coordinator_mss_id:
            self._sequence(message.payload)
        else:
            self.network.mss(mss_id).send_fixed(
                self.coordinator_mss_id, self.kind_submit,
                message.payload, self.scope,
            )

    def _on_submit(self, message: Message) -> None:
        self._sequence(message.payload)

    def _sequence(self, publish: Publish) -> None:
        self._next_seq += 1
        sequenced = Sequenced(
            self._next_seq, publish.sender_mh_id, publish.payload
        )
        self.history[sequenced.seq] = sequenced
        coordinator = self.coordinator_mss_id
        self.network.fan_out_fixed(
            coordinator,
            [m for m in sorted(self.view.view_copies[coordinator])
             if m != coordinator],
            self.kind_fanout, sequenced, self.scope,
        )
        # The coordinator's own cell may host members even when it is
        # not in the view; delivering locally is free either way.
        self._deliver_local(self.coordinator_mss_id, sequenced)

    # ------------------------------------------------------------------
    # Cell-side delivery
    # ------------------------------------------------------------------

    def _on_fanout(self, message: Message) -> None:
        self._deliver_local(message.dst, message.payload)

    def _deliver_local(self, mss_id: str, sequenced: Sequenced) -> None:
        mss = self.network.mss(mss_id)
        for member in sorted(self.view.local_members[mss_id]):
            if not mss.is_local(member):
                continue  # mid-move: repaired via sync-on-join later
            self.network.send_wireless_down(
                mss_id,
                member,
                Message(
                    kind=self.kind_deliver,
                    src=mss_id,
                    dst=member,
                    payload=sequenced,
                    scope=self.scope,
                ),
            )

    # ------------------------------------------------------------------
    # Member side: holdback ordering and gap repair
    # ------------------------------------------------------------------

    def _on_deliver(self, message: Message) -> None:
        member = message.dst
        sequenced: Sequenced = message.payload
        state = self._states[member]
        if sequenced.seq < state.expected:
            return  # duplicate (e.g. a repair raced a regular copy)
        state.holdback[sequenced.seq] = sequenced
        self._flush(member, state)
        if state.holdback:
            # A gap precedes the held messages: ask for a repair.
            self._request_repair(member, state)

    def _flush(self, member: str, state: _MemberState) -> None:
        while state.expected in state.holdback:
            sequenced = state.holdback.pop(state.expected)
            state.expected += 1
            self.delivered.append(
                (
                    self.network.scheduler.now,
                    member,
                    sequenced.seq,
                    sequenced.payload,
                )
            )

    def _request_repair(self, member: str, state: _MemberState) -> None:
        mh = self.network.mobile_host(member)
        if not mh.is_connected:  # pragma: no cover - defensive
            return
        highest_held = max(state.holdback)
        missing = tuple(
            seq
            for seq in range(state.expected, highest_held)
            if seq not in state.holdback
        )
        if not missing:
            return
        self.repairs_requested += 1
        mh.send_to_mss(
            self.kind_nack,
            RepairRequest(member, missing, mh.current_mss_id),
            self.scope,
        )

    def _on_nack_uplink(self, message: Message) -> None:
        request: RepairRequest = message.payload
        mss_id = message.dst
        if mss_id == self.coordinator_mss_id:
            self._repair(request)
        else:
            self.network.mss(mss_id).send_fixed(
                self.coordinator_mss_id, self.kind_repair, request,
                self.scope,
            )

    def _on_repair(self, message: Message) -> None:
        self._repair(message.payload)

    def _repair(self, request: RepairRequest) -> None:
        # Resend straight to the member's (reported) cell; if it moved
        # again, the next sync-on-join triggers another repair.
        coordinator = self.network.mss(self.coordinator_mss_id)
        for seq in request.missing:
            sequenced = self.history.get(seq)
            if sequenced is None:
                continue
            if request.reply_mss_id == self.coordinator_mss_id:
                self._deliver_repair(
                    self.coordinator_mss_id, request.mh_id, sequenced
                )
            else:
                coordinator.send_fixed(
                    request.reply_mss_id,
                    self.kind_fanout,
                    sequenced,
                    self.scope,
                )

    def _deliver_repair(self, mss_id: str, mh_id: str,
                        sequenced: Sequenced) -> None:
        mss = self.network.mss(mss_id)
        if mss.is_local(mh_id):
            mss.send_to_local_mh(
                mh_id, self.kind_deliver, sequenced, self.scope
            )

    # ------------------------------------------------------------------
    # Sync-on-join: bounded tail loss
    # ------------------------------------------------------------------

    def _on_member_join(self, mss_id: str, mh_id: str,
                        prev_mss_id: Optional[str]) -> None:
        if mh_id not in self._states:
            return
        self.network.mss(mss_id).send_fixed(
            self.coordinator_mss_id,
            self.kind_sync_req,
            SyncRequest(mh_id, mss_id),
            self.scope,
        )

    def _on_sync_req(self, message: Message) -> None:
        request: SyncRequest = message.payload
        # The sync request doubles as a view audit.  The paper's view
        # protocol has a (disregarded) race: a move into a cell that a
        # concurrent delete is removing can be judged insignificant
        # against a stale copy, leaving a member's cell permanently
        # outside the view.  The coordinator is the serialization
        # point, so it repairs the anomaly here: a cell reporting a
        # member join must be in the view.
        coordinator_copy = self.view.view_copies[self.coordinator_mss_id]
        if request.reply_mss_id not in coordinator_copy:
            from repro.groups.location_view import ChangeRequest
            self.view._on_change(
                Message(
                    kind=self.view.kind_change,
                    src=self.coordinator_mss_id,
                    dst=self.coordinator_mss_id,
                    payload=ChangeRequest(
                        add_mss_id=request.reply_mss_id,
                        delete_mss_id=None,
                    ),
                    scope=self.view.scope,
                )
            )
        self.network.mss(self.coordinator_mss_id).send_fixed(
            request.reply_mss_id,
            self.kind_sync_rsp,
            (request.mh_id, self._next_seq),
            self.scope,
        )

    def _on_sync_rsp(self, message: Message) -> None:
        mh_id, max_seq = message.payload
        mss = self.network.mss(message.dst)
        if mss.is_local(mh_id):
            mss.send_to_local_mh(
                mh_id, self.kind_sync, max_seq, self.scope
            )

    def _on_view_add(self, added_mss_id: str) -> None:
        if added_mss_id == self.coordinator_mss_id:
            self._on_cell_sync_at(added_mss_id, self._next_seq)
            return
        self.network.mss(self.coordinator_mss_id).send_fixed(
            added_mss_id, self.kind_cell_sync, self._next_seq, self.scope
        )

    def _on_cell_sync(self, message: Message) -> None:
        self._on_cell_sync_at(message.dst, message.payload)

    def _on_cell_sync_at(self, mss_id: str, max_seq: int) -> None:
        mss = self.network.mss(mss_id)
        for member in sorted(self.view.local_members[mss_id]):
            if member in self._states and mss.is_local(member):
                mss.send_to_local_mh(
                    member, self.kind_sync, max_seq, self.scope
                )

    def _on_sync(self, message: Message) -> None:
        member = message.dst
        max_seq = message.payload
        state = self._states[member]
        missing = tuple(
            seq
            for seq in range(state.expected, max_seq + 1)
            if seq not in state.holdback
        )
        if not missing:
            return
        mh = self.network.mobile_host(member)
        if not mh.is_connected:  # pragma: no cover - defensive
            return
        self.repairs_requested += 1
        mh.send_to_mss(
            self.kind_nack,
            RepairRequest(member, missing, mh.current_mss_id),
            self.scope,
        )
