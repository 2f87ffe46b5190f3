"""System-level message kinds and payloads of the mobility protocol.

The join/leave(r)/disconnect/reconnect vocabulary of the paper's Section 2.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

MOBILITY_SCOPE = "mobility"

KIND_LEAVE = "sys.leave"
KIND_JOIN = "sys.join"
KIND_DISCONNECT = "sys.disconnect"
KIND_RECONNECT = "sys.reconnect"
KIND_HANDOFF_REQUEST = "sys.handoff_request"
KIND_HANDOFF_REPLY = "sys.handoff_reply"
KIND_FIND_DISCONNECT_QUERY = "sys.find_disconnect_query"
KIND_FIND_DISCONNECT_REPLY = "sys.find_disconnect_reply"


class LeavePayload(NamedTuple):
    """``leave(r)``: the last downlink sequence number received."""

    mh_id: str
    last_received_seq: int


class JoinPayload(NamedTuple):
    """``join(mh_id)``, optionally naming the previous MSS for handoff."""

    mh_id: str
    prev_mss_id: Optional[str]


class DisconnectPayload(NamedTuple):
    """``disconnect(r)``: like leave, but sets the disconnected flag."""

    mh_id: str
    last_received_seq: int


class ReconnectPayload(NamedTuple):
    """``reconnect(mh_id, prev_mss_id)``.

    ``prev_mss_id`` may be ``None`` when the MH cannot remember where it
    disconnected; the new MSS must then query every fixed host.
    """

    mh_id: str
    prev_mss_id: Optional[str]


class HandoffRequest(NamedTuple):
    """New MSS asks the previous MSS for the MH's algorithm state."""

    mh_id: str
    new_mss_id: str
    clearing_disconnect: bool = False


class HandoffReply(NamedTuple):
    """Previous MSS hands over per-protocol state for the MH."""

    mh_id: str
    state: Dict[str, object]
    was_disconnected: bool = False


class FindDisconnectQuery(NamedTuple):
    """Broadcast query: 'did MH disconnect in your cell?'."""

    mh_id: str
    reply_to: str


class FindDisconnectReply(NamedTuple):
    """Positive answer to :class:`FindDisconnectQuery`."""

    mh_id: str
    mss_id: str
