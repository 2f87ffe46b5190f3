"""Deterministic discrete-event simulation kernel (substrate S1).

The kernel is intentionally small: a binary-heap scheduler with a
monotonically increasing tie-breaking sequence number, cancellable
event handles, handle-free fire-and-forget posting, and a tiny
process helper for periodic activities.  Everything else in the library
(channels, hosts, mobility, algorithms) is built on top of
:class:`Scheduler`.
This is the deterministic substrate beneath every protocol in the paper reproduction.
"""

from repro.sim.scheduler import Event, Scheduler
from repro.sim.process import PeriodicProcess, PoissonProcess

__all__ = [
    "Event",
    "Scheduler",
    "PeriodicProcess",
    "PoissonProcess",
]
