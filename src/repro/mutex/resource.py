"""The critical region, instrumented as a safety/fairness oracle.

Every mutual exclusion algorithm in the library drives its holders
through a shared :class:`CriticalResource`.  The resource asserts the
safety property (at most one holder at any simulated instant) and keeps
the full access log that fairness tests inspect (e.g. L2 grants in
timestamp order; R2' grants at most once per MH per ring traversal).
The oracle checks the safety claim of the paper's Section 3 algorithms.
:class:`Region` is the MH side of holding the region for every
algorithm; where a support station grants it, :class:`RegionClient`
adds the hand-back.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
)

from repro.errors import MutualExclusionViolation, ProtocolError
from repro.sim import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.messages import Message
    from repro.net.network import Network


class AccessRecord:
    """One completed (or in-progress) critical-region access."""

    __slots__ = ("holder", "enter_time", "exit_time", "info")

    def __init__(self, holder: str, enter_time: float,
                 exit_time: Optional[float] = None, info: Any = None) -> None:
        self.holder = holder
        self.enter_time = enter_time
        self.exit_time = exit_time
        self.info = info


class CriticalResource:
    """A shared resource that at most one process may hold at a time.

    Args:
        scheduler: the simulation clock (used to timestamp accesses).
        raise_on_violation: if ``True`` (default), a second concurrent
            ``enter`` raises :class:`MutualExclusionViolation`; if
            ``False``, violations are only counted -- useful for
            experiments that deliberately run an algorithm outside its
            assumptions (e.g. L1 over non-FIFO mobile channels).
    """

    def __init__(
        self, scheduler: Scheduler, raise_on_violation: bool = True
    ) -> None:
        self._scheduler = scheduler
        self._raise = raise_on_violation
        self.holder: Optional[str] = None
        self.accesses: List[AccessRecord] = []
        self.violations = 0
        self._current: Optional[AccessRecord] = None

    def enter(self, holder: str, info: Any = None) -> None:
        """Record ``holder`` entering the critical region."""
        if self.holder is not None:
            self.violations += 1
            if self._raise:
                raise MutualExclusionViolation(
                    f"{holder} entered while {self.holder} holds the region "
                    f"at t={self._scheduler.now}"
                )
        self.holder = holder
        self._current = AccessRecord(
            holder=holder, enter_time=self._scheduler.now, info=info
        )
        self.accesses.append(self._current)

    def leave(self, holder: str) -> None:
        """Record ``holder`` leaving the critical region."""
        if self.holder != holder:
            raise MutualExclusionViolation(
                f"{holder} left the region but holder is {self.holder}"
            )
        if self._current is not None:
            self._current.exit_time = self._scheduler.now
            self._current = None
        self.holder = None

    @property
    def access_count(self) -> int:
        """Number of accesses recorded so far (including in-progress)."""
        return len(self.accesses)

    def holders_in_order(self) -> List[str]:
        """Holder ids in the order they entered the region."""
        return [record.holder for record in self.accesses]

    def assert_no_overlap(self) -> None:
        """Re-verify the whole log for overlapping accesses.

        A belt-and-braces check for tests: ``enter`` already enforces
        safety online, but this validates the recorded log end to end.
        """
        previous_exit = float("-inf")
        for index, record in enumerate(self.accesses):
            if record.enter_time < previous_exit:
                raise MutualExclusionViolation(
                    f"access by {record.holder} at {record.enter_time} "
                    f"overlaps previous exit at {previous_exit}"
                )
            if record.exit_time is None:
                if index != len(self.accesses) - 1:
                    raise MutualExclusionViolation(
                        f"{record.holder} never left the region but a "
                        f"later access was recorded"
                    )
            else:
                previous_exit = record.exit_time


class RegionReturn(NamedTuple):
    """MH -> (current MSS ->) granting MSS: the right to enter, handed
    back (L2's ``release_resource``, R2's token return)."""

    mh_id: str
    grantor_mss_id: str
    epoch: int = 0


class Region:
    """The MH side of holding the region, for every mutex in the library.

    *Enter* emits ``cs.enter``, holds the resource and schedules the
    exit; *exit* leaves, emits ``cs.exit`` and calls ``exited(back)``.
    ``back`` is whatever the algorithm needs once the MH is out: L1's MH
    id, R1's token and forward, the hand-back a :class:`RegionClient`
    owes.  *Crash* vacates the region of a MH that died inside it: the
    exit is cancelled, ``<fault>.grant_aborted_by_crash`` recorded, an
    aborted ``cs.exit`` emitted, and ``back`` returned (``None`` if the
    MH was not inside).  ``detail`` keys the algorithm's mark in each
    ``cs.*`` event; ``None`` means the events carry no mark.
    """

    def __init__(
        self, network: "Network", resource: CriticalResource,
        cs_duration: float, scope: str, fault: str,
        detail: Optional[str] = None,
        exited: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.network = network
        self.resource = resource
        self.cs_duration = cs_duration
        self.scope = scope
        self._fault = fault
        self._detail = detail
        self._exited = exited
        #: mh_id -> (back, mark, scheduled exit) while inside.
        self._inside: Dict[str, Tuple[Any, Any, object]] = {}
        # Site emitters (Tracer.call_site_batch): the tracer is
        # installed before protocols attach.
        self._cs_enter = network._trace.call_site_batch("cs.enter")
        self._cs_exit = network._trace.call_site_batch("cs.exit")

    def _marked(self, mark: Any) -> Dict[str, Any]:
        return {} if self._detail is None else {self._detail: mark}

    def enter(self, mh_id: str, back: Any, info: Any,
              mark: Any = None) -> None:
        """``mh_id`` holds the region; ``exited(back)`` runs at exit."""
        if self.network._trace_on:
            self._cs_enter(self.scope, mh_id, None, None, None,
                           self._marked(mark))
        self.resource.enter(mh_id, info=info)
        exit_event = self.network.scheduler.schedule(
            self.cs_duration, self._exit, mh_id, back, mark)
        self._inside[mh_id] = (back, mark, exit_event)

    def _exit(self, mh_id: str, back: Any, mark: Any) -> None:
        self._inside.pop(mh_id, None)
        self.resource.leave(mh_id)
        if self.network._trace_on:
            self._cs_exit(self.scope, mh_id, None, None, None,
                          self._marked(mark))
        if self._exited is not None:
            self._exited(back)

    def crash(self, mh_id: str) -> Any:
        """Vacate the region if ``mh_id`` died inside it; return its
        ``back`` (``None`` if it was not inside)."""
        inside = self._inside.pop(mh_id, None)
        if inside is None:
            return None
        back, mark, exit_event = inside
        exit_event.cancel()
        self.resource.leave(mh_id)
        self.network.metrics.record_fault(
            f"{self._fault}.grant_aborted_by_crash")
        if self.network._trace_on:
            self._cs_exit(self.scope, mh_id, None, None, None, {
                **self._marked(mark), "aborted": True, "reason": "mh.crash"})
        return back


class RegionClient(Region):
    """A region a support station grants (L2, and so the proxied mutex,
    and R2): Section 5's obligations wherever the MH is.

    ``back`` is the :class:`RegionReturn` the MH owes from its exit
    until it is attached: at once, or when it next attaches.  The cell
    it lands in forwards it to the grantor (or drops it if the grantor
    is down), where ``returned(grantor, mh_id)`` runs; a station drops
    any hand-back that ``live`` rejects.  ``kinds`` names the hand-back
    sent and forwarded.
    """

    def __init__(
        self, network: "Network", resource: CriticalResource,
        cs_duration: float, scope: str, kinds: Tuple[str, str],
        fault: str, detail: str, returned: Callable[[str, str], None],
        exited: Optional[Callable[[RegionReturn], None]] = None,
        live: Optional[Callable[[RegionReturn], bool]] = None,
    ) -> None:
        super().__init__(network, resource, cs_duration, scope, fault,
                         detail, exited)
        self._kind, self._fwd_kind = (f"{scope}.{kind}" for kind in kinds)
        self._returned = returned
        self._live = live
        #: mh_id -> the hand-back a detached MH owes.
        self._owed: Dict[str, RegionReturn] = {}
        self._clients: set = set()
        for mss_id in network.mss_ids():
            mss = network.mss(mss_id)
            mss.register_handler(self._kind, self._on_return)
            mss.register_handler(self._fwd_kind, self._on_return)

    def attach(self, mh_id: str, on_grant: Callable) -> None:
        """Wire ``mh_id`` once: ``on_grant`` handles its grants, and it
        sends what it owes each time it (re)attaches."""
        if mh_id in self._clients:
            return
        self._clients.add(mh_id)
        mh = self.network.mobile_host(mh_id)
        mh.register_handler(f"{self.scope}.grant", on_grant)
        mh.add_attach_listener(partial(self._flush, mh_id))

    def _exit(self, mh_id: str, back: RegionReturn, mark: Any) -> None:
        super()._exit(mh_id, back, mark)
        if mh_id in self._owed:
            raise ProtocolError(f"{mh_id} already owes a hand-back")
        self._owed[mh_id] = back
        if self.network.mobile_host(mh_id).is_connected:
            self._flush(mh_id)

    def _flush(self, mh_id: str) -> None:
        back = self._owed.pop(mh_id, None)
        if back is not None:
            self.network.mobile_host(mh_id).send_to_mss(
                self._kind, back, self.scope)

    def disclaim(self, mh_id: str) -> Optional[RegionReturn]:
        """Forget and return the hand-back ``mh_id`` owes, if any."""
        return self._owed.pop(mh_id, None)

    def _on_return(self, message: "Message") -> None:
        # Both kinds land here; a forwarded one is already at home.
        back: RegionReturn = message.payload
        if self._live is not None and not self._live(back):
            return
        here, grantor = message.dst, back.grantor_mss_id
        if grantor == here:
            self._returned(here, back.mh_id)
        elif self.network.is_mss_crashed(grantor):
            # The right to enter died with the grantor; the algorithm's
            # crash handling restores it.
            self.network.metrics.record_fault(
                f"{self._fault}.return_to_crashed")
        else:
            self.network.mss(here).send_fixed(
                grantor, self._fwd_kind, back, self.scope)
