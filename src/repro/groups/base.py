"""Shared machinery for the three group location strategies.

Common to the paper's Section 4 group location management strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.messages import Message
    from repro.net.network import Network


@dataclass
class GroupStats:
    """The paper's accounting quantities for one group strategy run.

    ``moves`` is MOB (total member moves), ``messages`` is MSG (group
    messages sent; location updates are *not* counted in MSG),
    ``significant_moves`` counts the moves that changed LV(G) (location
    view only), and ``deliveries``/``missed`` track per-member message
    outcomes.
    """

    moves: int = 0
    messages: int = 0
    significant_moves: int = 0
    deliveries: int = 0
    missed: int = 0
    membership_changes: int = 0
    #: sum over all messages of the recipient count at send time; the
    #: accounting invariant is ``deliveries + missed ==
    #: expected_recipients`` even when membership changes mid-run.
    expected_recipients: int = 0

    @property
    def mobility_to_message_ratio(self) -> float:
        """MOB / MSG -- the paper's figure of merit."""
        if self.messages == 0:
            return float("inf") if self.moves else 0.0
        return self.moves / self.messages

    @property
    def significant_fraction(self) -> float:
        """f = significant moves / total moves."""
        if self.moves == 0:
            return 0.0
        return self.significant_moves / self.moves


class DeliveryEnvelope(NamedTuple):
    """Wraps a group payload with its message id for exact accounting."""

    msg_id: int
    payload: object


class GroupStrategy:
    """Base class: membership, delivery log and MOB accounting.

    Accounting invariant: for every group message, each non-sender
    member at send time is recorded *exactly once* as either delivered
    or missed (``stats.deliveries + stats.missed ==
    stats.expected_recipients``), even under arbitrary races between
    messages in flight, member moves and membership changes.
    Strategies report outcomes through :meth:`_record_delivered` /
    :meth:`_record_missed`; the first report per (message, recipient)
    wins and duplicates are ignored.

    Args:
        network: the simulated system.
        members: mobile hosts forming the initial group G (Section 4
            assumes fixed membership; :meth:`add_member` and
            :meth:`remove_member` extend it).
        scope: metrics scope for all of this strategy's traffic.
    """

    def __init__(
        self,
        network: "Network",
        members: List[str],
        scope: str,
    ) -> None:
        if len(members) < 2:
            raise ConfigurationError("a group needs at least two members")
        if len(set(members)) != len(members):
            raise ConfigurationError("group members must be unique")
        self.network = network
        self.members = list(members)
        self.scope = scope
        self.stats = GroupStats()
        #: (time, recipient, payload) per successful delivery.
        self.delivered: List[Tuple[float, str, object]] = []
        self.kind_deliver = f"{scope}.deliver"
        self._msg_seq = 0
        #: every member ever wired -> its bit in the outcome masks,
        #: assigned on first sight and never reused.
        self._bits: Dict[str, int] = {}
        #: msg_id -> the bits of the recipients accounted for, and of
        #: those whose miss is provisional (no entry: none).
        self._accounted: Dict[int, int] = {}
        self._provisional: Dict[int, int] = {}
        for mh_id in self.members:
            self._wire_member(mh_id)

    def _wire_member(self, mh_id: str) -> None:
        if mh_id in self._bits:
            return
        self._bits[mh_id] = 1 << len(self._bits)
        mh = self.network.mobile_host(mh_id)
        mh.register_handler(self.kind_deliver, self._on_deliver)
        mh.add_attach_listener(partial(self._on_member_attached, mh_id))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def send(self, sender_mh_id: str, payload: object) -> None:
        """Send a group message from ``sender_mh_id`` to all members."""
        if sender_mh_id not in self.members:
            raise ConfigurationError(
                f"{sender_mh_id} is not a member of this group"
            )
        self.stats.messages += 1
        self.stats.expected_recipients += len(self.members) - 1
        self._msg_seq += 1
        self._send(sender_mh_id, payload, self._msg_seq)

    def add_member(self, mh_id: str) -> None:
        """Admit ``mh_id`` into the group (membership extension).

        The paper assumes fixed membership; this extension keeps the
        membership list itself externally consistent (the group
        membership service the paper defers to) while the *location
        state* each strategy maintains is updated through the
        strategy's own messages.
        """
        if mh_id in self.members:
            raise ConfigurationError(f"{mh_id} is already a member")
        mh = self.network.mobile_host(mh_id)
        if not mh.is_connected:
            raise ConfigurationError(
                f"{mh_id} must be connected to join the group"
            )
        self._wire_member(mh_id)
        self.members.append(mh_id)
        self.stats.membership_changes += 1
        self._on_member_added(mh_id)

    def remove_member(self, mh_id: str) -> None:
        """Remove ``mh_id`` from the group (membership extension)."""
        if mh_id not in self.members:
            raise ConfigurationError(f"{mh_id} is not a member")
        self.members.remove(mh_id)
        self.stats.membership_changes += 1
        self._on_member_removed(mh_id)

    def deliveries_of(self, payload: object) -> List[str]:
        """Recipients that received ``payload`` (for tests)."""
        return [mh for (_, mh, p) in self.delivered if p == payload]

    # ------------------------------------------------------------------
    # Strategy hooks
    # ------------------------------------------------------------------

    def _send(self, sender_mh_id: str, payload: object,
              msg_id: int) -> None:
        raise NotImplementedError

    def _after_member_attached(self, mh_id: str) -> None:
        """Strategy-specific reaction to a member's (re)attachment."""

    def _on_member_added(self, mh_id: str) -> None:
        """Strategy-specific state setup for a joining member."""

    def _on_member_removed(self, mh_id: str) -> None:
        """Strategy-specific state teardown for a leaving member."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _on_member_attached(self, mh_id: str) -> None:
        if mh_id not in self.members:
            return  # removed from the group; moves no longer concern it
        self.stats.moves += 1
        self._after_member_attached(mh_id)

    def _on_deliver(self, message) -> None:
        envelope: DeliveryEnvelope = message.payload
        if self._record_outcome(envelope.msg_id, message.dst,
                                delivered=True):
            self.delivered.append(
                (
                    self.network.scheduler.now,
                    message.dst,
                    envelope.payload,
                )
            )

    def _record_delivered(self, msg_id: int, mh_id: str) -> bool:
        """Mark (message, recipient) delivered; False if already
        accounted."""
        return self._record_outcome(msg_id, mh_id, delivered=True)

    def _record_missed(self, msg_id: int, mh_id: str) -> bool:
        """Mark (message, recipient) missed; False if already
        accounted."""
        return self._record_outcome(msg_id, mh_id, delivered=False)

    def _lost_on_air(self, msg_id: int, mh_id: str,
                     message: "Message") -> None:
        """``on_lost`` of a downlink copy: ``mh_id`` left its cell while
        the copy was on the air."""
        self._record_missed(msg_id, mh_id)

    def _record_missed_provisionally(self, msg_id: int, mh_id: str) -> None:
        """Mark (message, recipient) missed, but allow a later delivery
        to upgrade the outcome.

        Used when a strategy cannot tell at send time whether a member
        caught mid-move will still be reached (e.g. a location-view
        fan-out that does not cover the member's destination cell yet).
        """
        bit = self._bits[mh_id]
        accounted = self._accounted.get(msg_id, 0)
        if accounted & bit:
            return
        self._accounted[msg_id] = accounted | bit
        self._provisional[msg_id] = self._provisional.get(msg_id, 0) | bit
        self.stats.missed += 1

    def _record_outcome(
        self, msg_id: int, mh_id: str, delivered: bool
    ) -> bool:
        bit = self._bits[mh_id]
        accounted = self._accounted.get(msg_id, 0)
        if accounted & bit:
            provisional = self._provisional.get(msg_id, 0)
            if delivered and provisional & bit:
                # A provisional miss turned out to be delivered after
                # all: upgrade the outcome.
                if provisional == bit:
                    del self._provisional[msg_id]
                else:
                    self._provisional[msg_id] = provisional ^ bit
                self.stats.missed -= 1
                self.stats.deliveries += 1
                return True
            return False
        self._accounted[msg_id] = accounted | bit
        if delivered:
            self.stats.deliveries += 1
        else:
            self.stats.missed += 1
        return True

    def current_mss_of(self, mh_id: str) -> Optional[str]:
        """Ground-truth location (used only for initial state setup)."""
        mh = self.network.mobile_host(mh_id)
        return mh.current_mss_id
