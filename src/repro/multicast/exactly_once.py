"""Exactly-once, totally ordered multicast delivery to mobile hosts.

Reproduces the companion system of the paper's reference [1].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hosts.mss import HandoffParticipant
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class Submit(NamedTuple):
    """Sender's MSS -> sequencer: please order and flood this payload."""

    sender_mh_id: str
    payload: object


class Store(NamedTuple):
    """Sequencer -> every MSS: buffer message ``seq``."""

    seq: int
    sender_mh_id: str
    payload: object


class Ack(NamedTuple):
    """MSS -> sequencer: member has now delivered up to ``seq``."""

    mh_id: str
    seq: int


class Prune(NamedTuple):
    """Sequencer -> every MSS: all members delivered up to ``seq``."""

    seq: int


class _StateCarrier(HandoffParticipant):
    """Moves a member's delivery counter between MSSs via handoff."""

    def __init__(self, multicast: "ExactlyOnceMulticast",
                 mss_id: str) -> None:
        self.name = f"{multicast.scope}.state"
        self._multicast = multicast
        self._mss_id = mss_id

    def handoff_state(self, mh_id: str):
        # A handoff request can be stale: the member may have bounced
        # back to this cell before the request (issued for an earlier
        # departure) arrived.  The counter's rightful home is wherever
        # the member currently is -- never hand it to a stale requester,
        # or the state forks (a ghost copy regresses the counter and
        # breaks exactly-once).
        mss = self._multicast.network.mss(self._mss_id)
        if mss.is_local(mh_id):
            return None
        states = self._multicast.member_states[self._mss_id]
        if mh_id in states:
            return states.pop(mh_id)
        return None

    def install_handoff_state(self, mh_id: str, state) -> None:
        self._multicast._install_state(self._mss_id, mh_id, state)


class ExactlyOnceMulticast:
    """Totally ordered multicast with exactly-once delivery.

    Args:
        network: the simulated system.
        members: the multicast group (fixed membership).
        sequencer_mss_id: the fixed MSS that orders messages
            (default: the first registered MSS).
        gc: enable acknowledgement-driven garbage collection of the
            per-MSS buffers.
        scope: metrics scope for all of this protocol's traffic.
    """

    def __init__(
        self,
        network: "Network",
        members: List[str],
        sequencer_mss_id: Optional[str] = None,
        gc: bool = True,
        scope: str = "eom",
    ) -> None:
        if len(members) < 1:
            raise ConfigurationError("multicast needs at least one member")
        if len(set(members)) != len(members):
            raise ConfigurationError("members must be unique")
        self.network = network
        self.members = list(members)
        mss_ids = network.mss_ids()
        if sequencer_mss_id is None:
            sequencer_mss_id = mss_ids[0]
        if sequencer_mss_id not in mss_ids:
            raise ConfigurationError(
                f"unknown sequencer: {sequencer_mss_id}"
            )
        self.sequencer_mss_id = sequencer_mss_id
        #: every other MSS: the store and prune fan-out targets.
        self._others = tuple(m for m in mss_ids if m != sequencer_mss_id)
        self.gc_enabled = gc
        self.scope = scope
        self.kind_send = f"{scope}.send"
        self.kind_submit = f"{scope}.submit"
        self.kind_store = f"{scope}.store"
        self.kind_deliver = f"{scope}.deliver"
        self.kind_ack = f"{scope}.ack"
        self.kind_prune = f"{scope}.prune"
        #: next sequence number at the sequencer.
        self._next_seq = 0
        #: per-MSS buffered messages: mss -> {seq -> Store}.
        self.buffers: Dict[str, Dict[int, Store]] = {
            mss_id: {} for mss_id in mss_ids
        }
        #: per-MSS delivery counters for locally resident members.
        self.member_states: Dict[str, Dict[str, int]] = {
            mss_id: {} for mss_id in mss_ids
        }
        #: per-MSS "a delivery is in flight for member" flags.
        self._delivering: Dict[Tuple[str, str], bool] = {}
        #: sequencer-side highest acked seq per member.
        self._acked: Dict[str, int] = {m: 0 for m in self.members}
        self._pruned_upto = 0
        #: (time, member, seq, payload) per delivery, for verification.
        self.delivered: List[Tuple[float, str, int, object]] = []

        for mss_id in mss_ids:
            mss = network.mss(mss_id)
            mss.register_handler(self.kind_submit, self._on_submit)
            mss.register_handler(self.kind_store, self._on_store)
            mss.register_handler(self.kind_ack, self._on_ack)
            mss.register_handler(self.kind_prune, self._on_prune)
            mss.register_handler(self.kind_send, self._on_uplink)
            mss.add_handoff_participant(_StateCarrier(self, mss_id))
            mss.add_join_listener(
                lambda mh_id, prev, m=mss_id: self._on_join(m, mh_id)
            )
        for member in self.members:
            mh = network.mobile_host(member)
            mh.register_handler(self.kind_deliver, self._on_deliver)
            if mh.current_mss_id is None:
                raise ConfigurationError(
                    f"member {member} must be connected at setup"
                )
            self.member_states[mh.current_mss_id][member] = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def send(self, sender_mh_id: str, payload: object) -> None:
        """Multicast ``payload`` from a member MH to the whole group."""
        if sender_mh_id not in self.members:
            raise ConfigurationError(
                f"{sender_mh_id} is not a group member"
            )
        mh = self.network.mobile_host(sender_mh_id)
        mh.send_to_mss(
            self.kind_send, Submit(sender_mh_id, payload), self.scope
        )

    def delivered_seqs(self, mh_id: str) -> List[int]:
        """Sequence numbers delivered to ``mh_id``, in delivery order."""
        return [seq for (_, m, seq, _) in self.delivered if m == mh_id]

    def buffer_size(self, mss_id: str) -> int:
        """Buffered (not yet pruned) messages at ``mss_id``."""
        return len(self.buffers[mss_id])

    @property
    def messages_sent(self) -> int:
        """Messages sequenced so far."""
        return self._next_seq

    # ------------------------------------------------------------------
    # Sequencing and flooding
    # ------------------------------------------------------------------

    def _on_uplink(self, message: Message) -> None:
        submit: Submit = message.payload
        mss_id = message.dst
        if mss_id == self.sequencer_mss_id:
            self._sequence(submit)
        else:
            self.network.mss(mss_id).send_fixed(
                self.sequencer_mss_id, self.kind_submit, submit,
                self.scope,
            )

    def _on_submit(self, message: Message) -> None:
        self._sequence(message.payload)

    def _sequence(self, submit: Submit) -> None:
        self._next_seq += 1
        store = Store(self._next_seq, submit.sender_mh_id, submit.payload)
        self.network.fan_out_fixed(self.sequencer_mss_id, self._others,
                                   self.kind_store, store, self.scope)
        self._store_at(self.sequencer_mss_id, store)

    def _on_store(self, message: Message) -> None:
        self._store_at(message.dst, message.payload)

    def _store_at(self, mss_id: str, store: Store) -> None:
        # FIFO channels from the sequencer guarantee a store can never
        # arrive after the prune covering it, so buffering is
        # unconditional.
        self.buffers[mss_id][store.seq] = store
        for member in list(self.member_states[mss_id]):
            self._catch_up(mss_id, member)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _on_join(self, mss_id: str, mh_id: str) -> None:
        # The member's counter may already be here (reconnect in the
        # same cell where it disconnected): catch up immediately.  After
        # a move the counter arrives with the handoff reply instead.
        if mh_id in self.member_states[mss_id]:
            self._catch_up(mss_id, mh_id)

    def _install_state(self, mss_id: str, mh_id: str, state) -> None:
        """Install a member's counter at ``mss_id``, or forward it on.

        A rapid second move (or disconnect/reconnect) can outrun the
        first handoff: the counter then arrives at a MSS the member has
        already left, whose own handoff reply (sent earlier) carried
        nothing.  The counter chases the member: the late holder
        searches for its current residence and forwards the state over
        the fixed network.
        """
        mss = self.network.mss(mss_id)
        if mss.is_local(mh_id) or mh_id in mss.disconnected_mhs:
            states = self.member_states[mss_id]
            # Defensive merge: never regress a counter that is already
            # here (two chases can only exist transiently).
            states[mh_id] = max(states.get(mh_id, 0), state)
            self._catch_up(mss_id, mh_id)
            return

        def on_outcome(outcome) -> None:
            target = outcome.mss_id
            if target == mss_id:
                # Still in transit towards here (or bounced): retry.
                self.network.scheduler.schedule(
                    self.network.config.search_retry_delay,
                    self._install_state, mss_id, mh_id, state,
                )
                return
            if not self.network.search_protocol.includes_forward:
                self.network.search_protocol.record_forward(
                    self.network, self.scope
                )
            # The state travels one fixed hop to the located MSS.
            self.network.scheduler.schedule(
                self.network.config.fixed_latency(self.network.rng),
                self._install_state, target, mh_id, state,
            )

        self.network.search_protocol.search(
            self.network, mss_id, mh_id, self.scope, on_outcome
        )

    def _catch_up(self, mss_id: str, mh_id: str) -> None:
        """Deliver the next missing message to a local member, if any."""
        if self._delivering.get((mss_id, mh_id)):
            return
        states = self.member_states[mss_id]
        if mh_id not in states:
            return
        mss = self.network.mss(mss_id)
        if not mss.is_local(mh_id):
            return
        next_seq = states[mh_id] + 1
        store = self.buffers[mss_id].get(next_seq)
        if store is None:
            return
        self._delivering[(mss_id, mh_id)] = True
        self.network.send_wireless_down(
            mss_id,
            mh_id,
            Message(
                kind=self.kind_deliver,
                src=mss_id,
                dst=mh_id,
                payload=store,
                scope=self.scope,
            ),
            on_delivered=lambda msg, m=mss_id, h=mh_id, s=store.seq: (
                self._confirmed(m, h, s)
            ),
            on_lost=lambda msg, m=mss_id, h=mh_id: (
                self._delivery_lost(m, h)
            ),
        )

    def _confirmed(self, mss_id: str, mh_id: str, seq: int) -> None:
        self._delivering[(mss_id, mh_id)] = False
        states = self.member_states[mss_id]
        if mh_id not in states:
            # The counter left this cell between send and confirm (a
            # stale-handoff race); never resurrect a ghost copy here.
            return
        if states[mh_id] < seq:
            states[mh_id] = seq
            if self.gc_enabled:
                self.network.mss(mss_id).send_fixed(
                    self.sequencer_mss_id, self.kind_ack,
                    Ack(mh_id, seq), self.scope,
                )
        self._catch_up(mss_id, mh_id)

    def _delivery_lost(self, mss_id: str, mh_id: str) -> None:
        # The member left the cell mid-delivery: its counter did not
        # advance, so the new MSS will redeliver after handoff.
        self._delivering[(mss_id, mh_id)] = False

    def _on_deliver(self, message: Message) -> None:
        store: Store = message.payload
        self.delivered.append(
            (
                self.network.scheduler.now,
                message.dst,
                store.seq,
                store.payload,
            )
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _on_ack(self, message: Message) -> None:
        ack: Ack = message.payload
        if ack.seq > self._acked.get(ack.mh_id, 0):
            self._acked[ack.mh_id] = ack.seq
        everyone = min(self._acked.values())
        if everyone > self._pruned_upto:
            self._pruned_upto = everyone
            self.network.fan_out_fixed(
                self.sequencer_mss_id, self._others, self.kind_prune,
                Prune(everyone), self.scope,
            )
            self._prune_at(self.sequencer_mss_id, everyone)

    def _on_prune(self, message: Message) -> None:
        prune: Prune = message.payload
        self._prune_at(message.dst, prune.seq)

    def _prune_at(self, mss_id: str, upto: int) -> None:
        buffer = self.buffers[mss_id]
        for seq in [s for s in buffer if s <= upto]:
            del buffer[seq]
