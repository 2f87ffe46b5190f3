"""Algorithm R2 and variants: the token ring over the support stations.

Section 3.1.2 of the paper.  The token circulates among the M MSSs
(``M * C_fixed`` per traversal).  A MH requests by one wireless message
to its local MSS, which queues the request.  When the token arrives at a
MSS, pending requests move to a *grant queue* and are serviced
sequentially: the token is sent to the requesting MH (search + wireless,
since it may have moved), used, and returned (wireless + fixed).  Each
satisfied request therefore costs ``3*C_wireless + C_fixed + C_search``
and K requests in one traversal cost
``K*(3*C_wireless + C_fixed + C_search) + M*C_fixed``.

Variants:

* ``R2Variant.PLAIN`` -- a MH that moves ahead of the token can be
  served once per MSS, up to ``N*M`` accesses per traversal.
* ``R2Variant.COUNTER`` (the paper's R2') -- the token carries
  ``token_val``, incremented per traversal; each MH submits its
  ``access_count`` with its request and a request is granted only if
  ``access_count < token_val``; on access the MH sets
  ``access_count = token_val``.  At most one access per MH per
  traversal, assuming MHs are honest.
* ``R2Variant.TOKEN_LIST`` (the paper's "Variations" scheme, R2'') --
  the token carries ``token_list`` of ``<MSS, MH>`` pairs; arriving at
  MSS ``m``, pairs with first element ``m`` are deleted; a request from
  ``h`` is granted only if ``h`` appears in no remaining pair; after
  service ``<m, h>`` is appended.  Robust even against MHs that lie
  about their ``access_count``.

Disconnection: if the token reaches the cell where a requester
disconnected, that MSS observes the disconnected flag and returns the
token to the sender (one fixed message); service continues with the next
grant-queue entry -- the rest of the system is unaffected.

Fault tolerance (beyond the paper): when a fault injector is installed
on the network, the ring also survives MSS crashes and token loss:

* forwarding skips crashed successors;
* a watchdog regenerates the token when the ring has been silent for
  ``token_timeout`` -- the first alive MSS in ring order acts as
  election leader and injects a fresh token tagged with a bumped
  *epoch*; stale tokens, grants and returns from the previous epoch
  are discarded on arrival, so regeneration can never double-grant;
* requests lost with a crashed station (and grants refused as stale)
  are resubmitted once their MH is connected again;
* completions are recorded at the MH side, so a return message dying
  with a crashing station does not lose the access.

All of this is inert by default: without an injector the algorithm's
message pattern is byte-identical to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, ProtocolError
from repro.mutex.resource import CriticalResource, RegionClient, RegionReturn
from repro.mutex.ring_core import RingNode, Token
from repro.net.messages import Message
from repro.net.search import SearchOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class R2Variant(Enum):
    """Fairness variants of the two-tier ring."""

    PLAIN = "R2"
    COUNTER = "R2'"
    TOKEN_LIST = "R2''"


class RingRequestPayload(NamedTuple):
    """MH -> local MSS: request for the token."""

    mh_id: str
    access_count: int


class RingGrantPayload(NamedTuple):
    """MSS -> MH: the token (its value) is yours; return when done."""

    mh_id: str
    grantor_mss_id: str
    token_val: int
    epoch: int = 0


@dataclass
class _PendingRequest:
    mh_id: str
    access_count: int


class R2Mutex:
    """Two-tier token-ring mutual exclusion (Algorithms R2/R2'/R2'').

    Args:
        network: the simulated system (the ring is all its MSSs, in
            registration order).
        resource: the instrumented critical region.
        cs_duration: how long a grantee stays inside the region.
        variant: which fairness variant to run.
        scope: metrics scope for all traffic of this instance.
        max_traversals: stop circulating after this many traversals.
        on_complete: optional callback ``(mh_id)`` per satisfied access.
        token_timeout: ring silence (no token arrival anywhere) after
            which the watchdog declares the token lost and regenerates.
    """

    def __init__(
        self,
        network: "Network",
        resource: CriticalResource,
        cs_duration: float = 1.0,
        variant: R2Variant = R2Variant.PLAIN,
        scope: str = "R2",
        max_traversals: Optional[int] = None,
        on_complete: Optional[Callable[[str], None]] = None,
        token_timeout: float = 50.0,
    ) -> None:
        self.network = network
        self.mss_ids = network.mss_ids()
        if len(self.mss_ids) < 2:
            raise ConfigurationError("R2 needs at least two MSSs")
        if token_timeout <= 0:
            raise ConfigurationError("token_timeout must be positive")
        self.resource = resource
        self.cs_duration = cs_duration
        self.variant = variant
        self.scope = scope
        self.max_traversals = max_traversals
        self.on_complete = on_complete
        #: callback ``(mh_id)`` per request skipped because its
        #: requester disconnected (fault-free runs only; under faults
        #: the request is resubmitted instead).
        self.on_aborted: Optional[Callable[[str], None]] = None
        #: crash/token-loss handling runs only when a fault injector is
        #: installed, so fault-free runs keep the paper's exact message
        #: pattern.
        self.fault_tolerant = network.faults is not None
        self.token_timeout = token_timeout
        self.completed: List[Tuple[float, str]] = []
        self.skipped_disconnected: List[str] = []
        self.finished = False
        self.regenerations = 0
        self._epoch = 0
        self._token_last_seen = 0.0
        self._last_token_val = 1
        self._last_traversals = 0
        #: mh_id -> MSS where its unserved request was submitted.
        self._outstanding_req: Dict[str, str] = {}
        self._resubmit_pending: set = set()
        self._nodes: Dict[str, RingNode] = {}
        self._request_queues: Dict[str, List[_PendingRequest]] = {}
        self._grant_queues: Dict[str, List[_PendingRequest]] = {}
        self._forward_fns: Dict[str, Callable[[], None]] = {}
        self._tokens: Dict[str, Token] = {}
        #: per-MH access counter (the MH-side state of R2'; 0 until the
        #: first grant); tests can override entries to model malicious
        #: under-reporting.
        self.access_counts: Dict[str, int] = {}
        #: MHs that lie about their access count (always report 0).
        self.malicious_mhs: set = set()
        # Site emitters (Tracer.call_site_batch) for per-visit events.
        self._emit_arrive = network._trace.call_site_batch("token.arrive")
        self._emit_grant = network._trace.call_site_batch("token.grant")
        for mss_id in self.mss_ids:
            self._attach_mss(mss_id)
        # Fault-tolerant runs record a completion at the MH as it leaves
        # the region, so a return dying with a crashing station cannot
        # lose the access.
        self._region = RegionClient(
            network, resource, cs_duration, scope, ("return", "return_fwd"),
            "r2", "token_val", returned=self._finish_access, live=self._live,
            exited=self._complete_at_exit if self.fault_tolerant else None,
        )
        if self.fault_tolerant:
            network.faults.add_crash_listener(self._on_mss_crash)
            network.faults.add_mh_crash_listener(self._on_mh_crash)
            network.faults.add_mh_recovery_listener(self._on_mh_recover)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _attach_mss(self, mss_id: str) -> None:
        mss = self.network.mss(mss_id)
        node = RingNode(
            node_id=mss_id,
            ring_order=self.mss_ids,
            send=partial(self._ring_send, mss_id),
            kind_prefix=self.scope,
            on_token=partial(self._on_token, mss_id),
        )
        self._nodes[mss_id] = node
        self._request_queues[mss_id] = []
        self._grant_queues[mss_id] = []
        mss.register_handler(
            f"{self.scope}.token", partial(self._handle_token_msg, node)
        )
        mss.register_handler(f"{self.scope}.request", self._on_request)

    def attach_client(self, mh_id: str) -> None:
        """Enable ``mh_id`` to use this ring (registers handlers)."""
        self._region.attach(mh_id, self._on_grant)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Inject the token at the ring head MSS.

        ``token_val`` starts at 1 so that fresh requests (access_count
        0) are eligible during the very first traversal of R2'.
        """
        self._nodes[self.mss_ids[0]].inject_token(Token(token_val=1))
        if self.fault_tolerant:
            self._token_last_seen = self.network.scheduler.now
            self._schedule_watchdog()

    def request(self, mh_id: str) -> None:
        """Have ``mh_id`` ask its local MSS for the token."""
        self.attach_client(mh_id)
        reported = (
            0 if mh_id in self.malicious_mhs
            else self.access_counts.get(mh_id, 0)
        )
        mh = self.network.mobile_host(mh_id)
        mh.send_to_mss(
            f"{self.scope}.request",
            RingRequestPayload(mh_id, reported),
            self.scope,
        )
        if self.fault_tolerant:
            self._outstanding_req[mh_id] = mh.current_mss_id

    def node(self, mss_id: str) -> RingNode:
        """The ring node at ``mss_id`` (for tests)."""
        return self._nodes[mss_id]

    def pending_requests(self, mss_id: str) -> int:
        """Requests currently queued at ``mss_id`` (for tests)."""
        return len(self._request_queues[mss_id])

    # ------------------------------------------------------------------
    # MSS side
    # ------------------------------------------------------------------

    def _on_request(self, message: Message) -> None:
        """Queue an MH's request at this MSS, at most once per MH.

        An MH has one request outstanding, so a second one from an MH
        already queued here (in the request or the grant queue) is a
        resubmission of the same request, e.g. after an amnesiac
        crash.  The queued copy wins: it keeps its place in line, and
        queueing both would grant the MH twice in one token visit.
        """
        payload: RingRequestPayload = message.payload
        mh_id = payload.mh_id
        mss_id = message.dst
        for queue in (self._request_queues[mss_id],
                      self._grant_queues[mss_id]):
            if any(request.mh_id == mh_id for request in queue):
                self.network.metrics.record_fault("r2.duplicate_request")
                return
        self._request_queues[mss_id].append(
            _PendingRequest(mh_id, payload.access_count)
        )

    def _handle_token_msg(self, node: RingNode, message: Message) -> None:
        token: Token = message.payload
        if self.fault_tolerant:
            if token.epoch < self._epoch:
                # A survivor of a pre-regeneration epoch resurfaced
                # (delayed or retransmitted): discard it, there is
                # exactly one live token per epoch.
                self.network.fault("r2.stale_token", scope=self.scope,
                                   src=node.node_id, epoch=token.epoch,
                                   live_epoch=self._epoch)
                return
            if node.has_token:
                # Duplicated on an unreliable wire; the copy is dropped.
                self.network.metrics.record_fault("r2.duplicate_token")
                return
        node.handle_token(token)

    def _ring_send(
        self, src_mss_id: str, dst_mss_id: str, kind: str, token: Token
    ) -> None:
        if self.fault_tolerant:
            alive = self.network.next_alive_mss(dst_mss_id)
            if alive is None:
                # Every station is down; the token vanishes here and the
                # watchdog regenerates once stations return.
                self.network.metrics.record_fault("r2.token_dropped")
                return
            if alive != dst_mss_id:
                self.network.metrics.record_fault("r2.ring_skip")
            dst_mss_id = alive
        self.network.mss(src_mss_id).send_fixed(
            dst_mss_id, kind, token, self.scope
        )

    def _on_token(
        self, mss_id: str, token: Token, forward: Callable[[], None]
    ) -> None:
        node = self._nodes[mss_id]
        acting_head = False
        if self.fault_tolerant:
            self._token_last_seen = self.network.scheduler.now
            head = self.mss_ids[0]
            if not node.is_head and self.network.is_mss_crashed(head):
                # The real head is down, so nobody advanced the
                # traversal counter; the first alive MSS stands in.
                acting_head = mss_id == self.network.next_alive_mss(head)
                if acting_head:
                    token.traversals += 1
                    token.token_val += 1
            self._last_token_val = token.token_val
            self._last_traversals = token.traversals
        if (
            self.max_traversals is not None
            and (node.is_head or acting_head)
            and token.traversals >= self.max_traversals
        ):
            self.finished = True
            return
        list_before = token.token_list
        if self.variant is R2Variant.TOKEN_LIST:
            token.token_list = [
                pair for pair in token.token_list if pair[0] != mss_id
            ]
        if self.network._trace_on:
            self._emit_arrive(self.scope, mss_id, None, None, None, {
                "variant": self.variant.value,
                "token_val": token.token_val,
                "traversals": token.traversals,
                "epoch": token.epoch,
                "token_list_before": [list(pair) for pair in list_before],
                "token_list": [list(pair) for pair in token.token_list],
            })
        queue = self._request_queues[mss_id]
        eligible: List[_PendingRequest] = []
        deferred: List[_PendingRequest] = []
        for request in queue:
            if self._eligible(mss_id, request, token):
                eligible.append(request)
            else:
                deferred.append(request)
        self._request_queues[mss_id] = deferred
        self._grant_queues[mss_id] = eligible
        self._tokens[mss_id] = token
        self._forward_fns[mss_id] = forward
        self._service_next(mss_id)

    def _eligible(
        self, mss_id: str, request: _PendingRequest, token: Token
    ) -> bool:
        if self.variant is R2Variant.PLAIN:
            return True
        if self.variant is R2Variant.COUNTER:
            return request.access_count < token.token_val
        served = {mh for (_, mh) in token.token_list}
        return request.mh_id not in served

    def _service_next(self, mss_id: str) -> None:
        if mss_id not in self._tokens:
            # Fault-tolerant runs only: the token this service loop was
            # working through was lost to a crash or regeneration while
            # a grant/return callback was in flight.
            return
        grant_queue = self._grant_queues[mss_id]
        token = self._tokens[mss_id]
        if not grant_queue:
            forward = self._forward_fns.pop(mss_id)
            del self._tokens[mss_id]
            forward()
            return
        request = grant_queue.pop(0)
        grant_id = self._emit_grant(
            self.scope, mss_id, request.mh_id, None, None,
            {"token_val": token.token_val, "epoch": token.epoch},
        ) if self.network._trace_on else None
        with self.network._trace.context(grant_id):
            self.network.mss(mss_id).send_to_mh(
                request.mh_id,
                f"{self.scope}.grant",
                RingGrantPayload(
                    request.mh_id, mss_id, token.token_val, token.epoch
                ),
                self.scope,
                on_disconnected=partial(
                    self._on_requester_disconnected, mss_id, request
                ),
            )

    def _on_requester_disconnected(
        self, mss_id: str, request: _PendingRequest, outcome: SearchOutcome
    ) -> None:
        # The MSS of the cell where the requester disconnected returns
        # the token to the sending MSS (one fixed message), and service
        # continues with the next entry.
        self.network.metrics.record_fixed(self.scope)
        if self.fault_tolerant:
            # The requester is gone for now (orphaned, disconnected, or
            # unreachable past the delivery cap) -- hold the request and
            # resubmit it once the MH is attached again.
            self.network.metrics.record_fault("r2.grant_deferred")
            self._resubmit(request.mh_id)
        else:
            self.skipped_disconnected.append(request.mh_id)
            if self.on_aborted is not None:
                self.on_aborted(request.mh_id)
        self._service_next(mss_id)

    def _live(self, back: RegionReturn) -> bool:
        if back.epoch < self._epoch:
            # Return from a pre-regeneration grant: the access itself
            # was already recorded at the MH; the token it would free
            # no longer exists.
            self.network.metrics.record_fault("r2.stale_return")
            return False
        return True

    def _finish_access(self, mss_id: str, mh_id: str) -> None:
        if mss_id not in self._tokens:
            if self.fault_tolerant:
                # The return outlived the token (crash or regeneration
                # in between); the completion was already recorded at
                # the MH side.
                self.network.metrics.record_fault("r2.orphan_return")
                return
            raise ProtocolError(
                f"{mss_id} received a token return while not holding it"
            )
        if self.variant is R2Variant.TOKEN_LIST:
            self._tokens[mss_id].token_list.append((mss_id, mh_id))
            if self.network._trace_on:
                self.network._trace.emit(
                    "token.append",
                    scope=self.scope,
                    src=mss_id,
                    pair=[mss_id, mh_id],
                    token_list=[
                        list(pair)
                        for pair in self._tokens[mss_id].token_list
                    ],
                )
        if not self.fault_tolerant:
            self._complete(mh_id)
        self._service_next(mss_id)

    def _complete(self, mh_id: str) -> None:
        self._outstanding_req.pop(mh_id, None)
        self._resubmit_pending.discard(mh_id)
        self.completed.append((self.network.scheduler.now, mh_id))
        if self.on_complete is not None:
            self.on_complete(mh_id)

    def _complete_at_exit(self, back: RegionReturn) -> None:
        self._complete(back.mh_id)

    # ------------------------------------------------------------------
    # Fault tolerance: crash handling, token regeneration, resubmission
    # ------------------------------------------------------------------

    def _on_mss_crash(self, mss_id: str) -> None:
        if not self.fault_tolerant or self.finished:
            return
        held_token = mss_id in self._tokens
        lost = self._request_queues[mss_id] + self._grant_queues[mss_id]
        self._request_queues[mss_id] = []
        self._grant_queues[mss_id] = []
        self._tokens.pop(mss_id, None)
        self._forward_fns.pop(mss_id, None)
        self._nodes[mss_id].reset()
        for request in lost:
            self.network.metrics.record_fault("r2.request_lost_in_crash")
            self._resubmit(request.mh_id)
        # Requests submitted at this MSS whose uplink was still in
        # flight never made it into any queue; resubmit those too.
        for mh_id, at_mss in list(self._outstanding_req.items()):
            if at_mss == mss_id:
                self._resubmit(mh_id)
        if held_token:
            # The token died with the station.
            self._regenerate_later()

    def _on_mh_crash(self, mh_id: str) -> None:
        # Only a crash inside the region needs handling here: a queued
        # or in-flight request is deferred by its grant's disconnected
        # outcome into the resubmission loop, and an owed return is
        # kept until the MH reattaches.
        if not self.finished:
            back = self._region.crash(mh_id)
            if back is not None:
                self._reissue(back.grantor_mss_id, mh_id)

    def _reissue(self, grantor: str, mh_id: str) -> None:
        # The crashed grantee will never send its return.  The physical
        # token object still sits at the grantor; bump the epoch so the
        # dead grant (and any late return forged from it) is stale, then
        # hand service straight to the next requester -- no need to wait
        # out the watchdog.
        self._epoch += 1
        token = self._tokens.get(grantor)
        if token is not None and not self.network.is_mss_crashed(grantor):
            token.epoch = self._epoch
            self.network.fault("r2.token_reissued", scope=self.scope,
                               src=grantor, epoch=self._epoch, mh_id=mh_id)
            self._service_next(grantor)
        else:
            # The grantor (and the token with it) is gone too.
            self._regenerate_later()

    def _on_mh_recover(self, mh_id: str) -> None:
        if not self.fault_tolerant or self.finished:
            return
        if (mh_id in self._outstanding_req
                and mh_id not in self._resubmit_pending):
            # The host died with a request outstanding somewhere in the
            # ring; an amnesiac host no longer remembers it, so the
            # station-side bookkeeping resubmits on its behalf.
            self._resubmit(mh_id)

    def _schedule_watchdog(self) -> None:
        self.network.scheduler.post(
            self.token_timeout / 2, self._check_token
        )

    def _check_token(self) -> None:
        if self.finished:
            return
        now = self.network.scheduler.now
        if now - self._token_last_seen > self.token_timeout:
            self._regenerate()
        self._schedule_watchdog()

    def _regenerate_later(self) -> None:
        # Give any in-flight grantee time to finish, then regenerate
        # (the watchdog is the backstop if this check is inconclusive).
        self.network.scheduler.post(
            max(2 * self.cs_duration, 5.0),
            self._regen_if_stale,
            self._token_last_seen,
        )

    def _regen_if_stale(self, last_seen: float) -> None:
        if self.finished or self._token_last_seen != last_seen:
            return
        self._regenerate()

    def _regenerate(self) -> None:
        leader = self.network.next_alive_mss(self.mss_ids[0])
        if leader is None:
            return  # every station is down; the watchdog retries later
        if self.resource.holder is not None:
            # Someone is inside the region on a still-valid grant; its
            # return may yet free a live token.  The watchdog retries.
            return
        self._epoch += 1
        self.regenerations += 1
        self.network.fault("r2.token_regenerated", "r2.regenerate",
                           scope=self.scope, src=leader, epoch=self._epoch,
                           token_val=self._last_token_val + 1)
        alive = [m for m in self.mss_ids
                 if not self.network.is_mss_crashed(m)]
        # Election and announcement traffic among the survivors: the
        # leader hears from / informs each other alive station once.
        if len(alive) > 1:
            self.network.metrics.record_fixed(
                self.scope, count=len(alive) - 1
            )
        for node in self._nodes.values():
            node.reset()
        for mss_id in self.mss_ids:
            # Grants that were queued but never sent go back to the
            # request queue for the next traversal.
            self._request_queues[mss_id].extend(self._grant_queues[mss_id])
            self._grant_queues[mss_id] = []
        self._tokens.clear()
        self._forward_fns.clear()
        self._token_last_seen = self.network.scheduler.now
        self._nodes[leader].inject_token(
            Token(
                token_val=self._last_token_val + 1,
                traversals=self._last_traversals,
                epoch=self._epoch,
            )
        )

    def _resubmit(self, mh_id: str) -> None:
        if self.finished or mh_id in self._resubmit_pending:
            return
        self._resubmit_pending.add(mh_id)
        self._try_resubmit(mh_id)

    def _try_resubmit(self, mh_id: str) -> None:
        if mh_id not in self._resubmit_pending:
            return  # satisfied by an in-flight grant meanwhile
        if self.finished:
            self._resubmit_pending.discard(mh_id)
            return
        mh = self.network.mobile_host(mh_id)
        if mh.is_connected and not self.network.is_mss_crashed(
                mh.current_mss_id):
            self._resubmit_pending.discard(mh_id)
            self.network.fault("r2.request_resubmitted", "r2.resubmit",
                               scope=self.scope, src=mh_id,
                               dst=mh.current_mss_id)
            self.request(mh_id)
            return
        # Not attached yet (in transit, disconnected, or orphaned by a
        # crash): poll until it comes back.
        self.network.scheduler.post(2.0, self._try_resubmit, mh_id)

    # ------------------------------------------------------------------
    # MH side
    # ------------------------------------------------------------------

    def _on_grant(self, message: Message) -> None:
        grant: RingGrantPayload = message.payload
        if self.fault_tolerant and grant.epoch < self._epoch:
            # The grantor's epoch died (crash + regeneration) while this
            # grant was in flight; honoring it could overlap with a
            # grant from the live token.  Refuse and ask again.
            self.network.fault("r2.stale_grant", scope=self.scope,
                               src=grant.mh_id, epoch=grant.epoch,
                               live_epoch=self._epoch)
            self._resubmit(grant.mh_id)
            return
        # R2': on receiving the token the MH adopts the current
        # token_val as its access_count.
        self.access_counts[grant.mh_id] = grant.token_val
        self._region.enter(
            grant.mh_id,
            RegionReturn(grant.mh_id, grant.grantor_mss_id, grant.epoch),
            {"algorithm": self.scope, "variant": self.variant.value,
             "token_val": grant.token_val},
            grant.token_val,
        )
