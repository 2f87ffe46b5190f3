"""Generic Lamport mutual exclusion over an abstract transport.

This is the *static substrate* (paper reference [11]) reused by both
tiers: in L1 the participants are the N mobile hosts, in L2 they are the
M support stations.  Only the transport differs -- which is exactly the
paper's structuring argument.

The node generalizes Lamport's algorithm to multiple outstanding
requests per participant, each identified by an opaque ``tag`` (L2 needs
this: one MSS proxies requests for several MHs; the request, reply and
release messages are tagged with the initiating MH's id).

Correctness relies on the classic conditions:

* a request enters the critical region only when it is the minimum of
  the local request queue *and* a message with a larger timestamp has
  been received from every other participant (FIFO channels make this
  imply that no smaller-stamped request can still be in flight);
* timestamps are totally ordered ``(counter, node_id)`` pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.clock import LamportClock, Timestamp
from repro.errors import ProtocolError


class MutexTransport:
    """Transport interface the Lamport node sends through."""

    def peers(self) -> Sequence[str]:
        """Ids of all *other* participants."""
        raise NotImplementedError

    def send(self, dst: str, kind: str, payload: object) -> None:
        """Send ``payload`` of ``kind`` to participant ``dst``."""
        raise NotImplementedError

    def broadcast(self, kind: str, payload: object) -> None:
        """Send ``payload`` of ``kind`` to every peer, in peers() order."""
        for peer in self.peers():
            self.send(peer, kind, payload)


class RequestPayload(NamedTuple):
    """Broadcast when a participant wants the region for ``tag``."""

    ts: Timestamp
    origin: str
    tag: str


class ReplyPayload(NamedTuple):
    """Acknowledgement carrying the replier's clock."""

    ts: Timestamp
    origin: str


class ReleasePayload(NamedTuple):
    """Broadcast when the region is released for ``tag``."""

    ts: Timestamp
    origin: str
    tag: str


class LamportMutexNode:
    """One participant of Lamport's mutual exclusion algorithm.

    Args:
        node_id: this participant's id.
        transport: how messages reach the other participants.
        kind_prefix: namespace for message kinds, so several instances
            can coexist (kinds are ``{prefix}.request`` etc.).
        on_granted: callback invoked with the request ``tag`` when that
            request may enter the critical region.
    """

    def __init__(
        self,
        node_id: str,
        transport: MutexTransport,
        kind_prefix: str,
        on_granted: Callable[[str], None],
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.kind_request = f"{kind_prefix}.request"
        self.kind_reply = f"{kind_prefix}.reply"
        self.kind_release = f"{kind_prefix}.release"
        self.on_granted = on_granted
        self.clock = LamportClock(node_id)
        # (origin, tag) -> request timestamp; the distributed queue.
        # Written only through _enqueue/_dequeue (and the two bulk
        # edits below), which keep ``_head`` in step.
        self._queue: Dict[Tuple[str, str], Timestamp] = {}
        # Key of the smallest queue entry.  ``None`` with a nonempty
        # queue means "not known": _min_queue_entry re-scans on demand.
        self._head: Optional[Tuple[str, str]] = None
        # peer -> largest timestamp seen from that peer.
        self._last_seen: Dict[str, Timestamp] = {}
        # own requests currently pending (not yet granted).
        self._pending: Dict[str, Timestamp] = {}
        # own requests granted but not yet released.
        self._held: Dict[str, Timestamp] = {}

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def request(self, tag: str) -> Timestamp:
        """Issue a timestamped request for the region on behalf of
        ``tag`` and broadcast it to all peers.

        Returns the request's timestamp (L2 exposes this to tests that
        verify grants happen in timestamp order).
        """
        if tag in self._pending or tag in self._held:
            raise ProtocolError(
                f"{self.node_id}: request tag {tag!r} already outstanding"
            )
        ts = self.clock.tick()
        self._enqueue((self.node_id, tag), ts)
        self._pending[tag] = ts
        payload = RequestPayload(ts, self.node_id, tag)
        self.transport.broadcast(self.kind_request, payload)
        self._check_grants()
        return ts

    def release(self, tag: str) -> None:
        """Release the region for ``tag`` and broadcast the release."""
        if tag not in self._held:
            raise ProtocolError(
                f"{self.node_id}: release for tag {tag!r} not held"
            )
        del self._held[tag]
        self._dequeue((self.node_id, tag))
        ts = self.clock.tick()
        payload = ReleasePayload(ts, self.node_id, tag)
        self.transport.broadcast(self.kind_release, payload)
        self._check_grants()

    def abort(self, tag: str) -> None:
        """Withdraw a granted-or-pending request without a region access.

        Used by L2 when the requesting MH turns out to be disconnected:
        its request cannot be satisfied, so the proxy broadcasts a
        release to unblock the other participants.
        """
        if tag in self._held:
            self.release(tag)
            return
        if tag not in self._pending:
            return
        del self._pending[tag]
        self._dequeue((self.node_id, tag))
        ts = self.clock.tick()
        payload = ReleasePayload(ts, self.node_id, tag)
        self.transport.broadcast(self.kind_release, payload)
        self._check_grants()

    def forget_origin(self, origin: str) -> int:
        """Purge every queue entry contributed by ``origin``.

        Used when ``origin``'s host crashed: its requests can never be
        released by the crashed node itself, so surviving participants
        disclaim them locally to keep the queue head reachable.
        Returns the number of entries purged.
        """
        stale = [key for key in self._queue if key[0] == origin]
        for key in stale:
            del self._queue[key]
        self._last_seen.pop(origin, None)
        if stale:
            self._head = None
            self._check_grants()
        return len(stale)

    def reannounce_to(self, peer: str) -> None:
        """Retransmit this node's pending requests to ``peer``.

        ``peer``'s memory of them died in a crash; without the
        retransmission the rejoiner's queue would order only its own
        post-recovery requests, and two nodes could believe they are at
        the queue head simultaneously.
        """
        outstanding = {**self._pending, **self._held}
        for tag, ts in outstanding.items():
            self.transport.send(
                peer, self.kind_request, RequestPayload(ts, self.node_id, tag)
            )

    def reset_volatile(self) -> None:
        """Drop all volatile protocol state (the host crashed).

        The queue, pending and held requests, and the record of peers'
        timestamps vanish with the host's memory.  The logical clock
        object survives only as a simulation convenience: it keeps
        ticking forward, so post-recovery requests carry fresh
        timestamps that cannot collide with pre-crash ones.
        """
        self._queue.clear()
        self._head = None
        self._pending.clear()
        self._held.clear()
        self._last_seen.clear()

    # ------------------------------------------------------------------
    # Message handlers (wire these to the host's dispatcher)
    # ------------------------------------------------------------------

    def on_request(self, payload: RequestPayload) -> None:
        """Handle a peer's request: enqueue and reply."""
        self.clock.merge(payload.ts)
        self._note_seen(payload.origin, payload.ts)
        self._enqueue((payload.origin, payload.tag), payload.ts)
        reply_ts = self.clock.tick()
        self.transport.send(
            payload.origin,
            self.kind_reply,
            ReplyPayload(reply_ts, self.node_id),
        )
        self._check_grants()

    def on_reply(self, payload: ReplyPayload) -> None:
        """Handle a peer's reply: it advances what we've seen from it."""
        self.clock.merge(payload.ts)
        self._note_seen(payload.origin, payload.ts)
        self._check_grants()

    def on_release(self, payload: ReleasePayload) -> None:
        """Handle a peer's release: drop its queue entry."""
        self.clock.merge(payload.ts)
        self._note_seen(payload.origin, payload.ts)
        self._dequeue((payload.origin, payload.tag))
        self._check_grants()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queue_size(self) -> int:
        """Entries currently in the local request queue."""
        return len(self._queue)

    def pending_tags(self) -> List[str]:
        """Tags of this node's requests that are not yet granted."""
        return list(self._pending)

    def held_tags(self) -> List[str]:
        """Tags of this node's requests currently holding the region."""
        return list(self._held)

    # ------------------------------------------------------------------

    def _note_seen(self, origin: str, ts: Timestamp) -> None:
        current = self._last_seen.get(origin)
        if current is None or ts > current:
            self._last_seen[origin] = ts

    def _enqueue(self, key: Tuple[str, str], ts: Timestamp) -> None:
        queue = self._queue
        head = self._head
        if head is None:
            if not queue:
                self._head = key
        elif key in queue:
            # A re-announced request overwrites its stamp in place; the
            # head can move either way, so let the next reader re-scan.
            self._head = None
        elif ts < queue[head]:
            self._head = key
        queue[key] = ts

    def _dequeue(self, key: Tuple[str, str]) -> None:
        self._queue.pop(key, None)
        if key == self._head:
            self._head = None

    def _min_queue_entry(self) -> Optional[Tuple[str, str]]:
        head = self._head
        if head is None and self._queue:
            head = self._head = min(self._queue, key=self._queue.__getitem__)
        return head

    def _check_grants(self) -> None:
        # Grant own pending requests, smallest timestamp first, while
        # the grant condition keeps holding.  Only an own pending
        # request can be granted, so a node without one (every
        # bystander, on every message) skips the queue scan.
        while self._pending:
            head = self._min_queue_entry()
            if head is None:
                return
            origin, tag = head
            if origin != self.node_id or tag not in self._pending:
                return
            ts = self._pending[tag]
            for peer in self.transport.peers():
                seen = self._last_seen.get(peer)
                if seen is None or not seen > ts:
                    return
            del self._pending[tag]
            self._held[tag] = ts
            self.on_granted(tag)
