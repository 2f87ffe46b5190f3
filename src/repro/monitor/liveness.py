"""Liveness watchdogs: detect stalls in simulated time.

Safety monitors say "nothing bad happened"; these say "something good
keeps happening".  :class:`LivenessMonitor` tracks three progress
signals, all against *simulated* deadlines (so a slow wall-clock run
is never flagged, and a replayed trace is judged identically):

* **request age** — a mutual-exclusion request (an uplinked
  ``*.request``/``*.init``) that stays unserved past
  ``request_deadline`` sim-time units;
* **token starvation** — a ring scope with pending requests whose
  token has not arrived anywhere for ``token_deadline`` units (a lost
  token whose regeneration watchdog also failed);
* **scheduler stall** — a gap larger than ``stall_gap`` between
  consecutive trace events while requests are pending: the scheduler
  kept ticking (or stopped) without the protocols making any
  observable progress.

Deadlines are checked lazily as events stream past — the monitor never
schedules anything, keeping the pure-observer contract — and
``finalize`` flags any request still pending when the run ends, which
is how a silently wedged protocol surfaces even if no later event ever
fires.  Each stalled request/scope is reported once per episode, not
once per event.
Part of the online monitoring layer (ROADMAP observability arc).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.monitor.base import Monitor
from repro.trace.events import TraceEvent

__all__ = ["LivenessMonitor"]

#: uplink kinds that register a pending mutual-exclusion request
_REQUEST_SUFFIXES = (".request", ".init")


class LivenessMonitor(Monitor):
    """Request-age, token-starvation, and stall watchdogs."""

    name = "liveness"
    interests = None  # needs the event stream's clock: sees everything
    #: uplink sends are narrowed to the request/init kinds the
    #: pending-request bookkeeping actually consumes (join/leave
    #: uplinks would be clock ticks only).
    kind_gates = {"send.wireless_up": _REQUEST_SUFFIXES}

    def __init__(
        self,
        request_deadline: float = 200.0,
        token_deadline: float = 120.0,
        stall_gap: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.request_deadline = float(request_deadline)
        self.token_deadline = float(token_deadline)
        self.stall_gap = (float(stall_gap) if stall_gap is not None
                          else self.token_deadline)
        #: (scope, mh) -> time the request was first submitted
        self.pending: Dict[Tuple[str, str], float] = {}
        self._flagged: Set[Tuple[str, str]] = set()
        self._last_token: Dict[str, float] = {}
        self._starved: Set[str] = set()
        self._last_event_time: Optional[float] = None
        self._next_check = 0.0

    # -- health-surface helpers --------------------------------------
    def oldest_pending_age(self, now: float) -> float:
        """Age of the oldest unserved request, 0.0 when none."""
        if not self.pending:
            return 0.0
        return now - min(self.pending.values())

    @property
    def check_interval(self) -> float:
        """Sim-time between lazy deadline sweeps (an eighth of the
        tighter deadline; shared with the batched fold so both
        dispatch paths re-arm identically)."""
        return min(self.request_deadline, self.token_deadline) / 8.0

    def _stall(self, now: float, last: float) -> None:
        """Record one scheduler-stall violation (shared with the
        batched consume loop so the report text stays identical)."""
        self.violation(
            "liveness.scheduler_stall", now,
            f"no observable progress for {now - last:g} "
            f"sim-time units while {len(self.pending)} "
            f"request(s) were pending",
            gap=now - last, pending=len(self.pending))

    # -- observation --------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        etype = event.etype
        now = event.time
        if etype == "send.wireless_up":
            kind = event.kind
            if kind is not None and kind.endswith(_REQUEST_SUFFIXES):
                self.pending.setdefault((event.scope, event.src), now)
        elif etype == "r2.resubmit":
            # keep the original submit time: age measures first ask
            self.pending.setdefault((event.scope, event.src), now)
        elif etype == "cs.enter":
            key = (event.scope, event.src)
            self.pending.pop(key, None)
            self._flagged.discard(key)
        elif etype == "token.arrive":
            self._last_token[event.scope] = now
            self._starved.discard(event.scope)

        if self.pending:
            last = self._last_event_time
            if last is not None and now - last > self.stall_gap:
                self._stall(now, last)
            if now >= self._next_check:
                self._check_deadlines(now)
                self._next_check = now + self.check_interval
        self._last_event_time = now

    def _check_deadlines(self, now: float) -> None:
        for key, submitted in self.pending.items():
            if key in self._flagged:
                continue
            age = now - submitted
            if age > self.request_deadline:
                self._flagged.add(key)
                scope, mh = key
                self.violation(
                    "liveness.request_age", now,
                    f"the {scope} request of {mh} has been pending "
                    f"for {age:g} sim-time units "
                    f"(deadline {self.request_deadline:g})",
                    scope=scope, mh=mh, age=age,
                    deadline=self.request_deadline)
        pending_scopes = {scope for scope, _ in self.pending}
        for scope, seen in self._last_token.items():
            if scope in self._starved or scope not in pending_scopes:
                continue
            starving = now - seen
            if starving > self.token_deadline:
                self._starved.add(scope)
                self.violation(
                    "liveness.token_starvation", now,
                    f"the {scope} token has not arrived anywhere for "
                    f"{starving:g} sim-time units while requests are "
                    f"pending (deadline {self.token_deadline:g})",
                    scope=scope, starving_for=starving,
                    deadline=self.token_deadline)

    def finalize(self, now: float) -> None:
        for (scope, mh), submitted in sorted(self.pending.items()):
            self.violation(
                "liveness.request_unserved", now,
                f"the {scope} request of {mh} (submitted at "
                f"{submitted:g}) was never served",
                scope=scope, mh=mh, submitted=submitted)
