"""Distributed mutual exclusion for mobile hosts (S9-S15).

Four algorithm families from Section 3 of the paper:

* :class:`L1Mutex` -- Lamport's timestamp algorithm executed directly by
  the N mobile hosts (the paper's inefficient baseline).
* :class:`L2Mutex` -- Lamport's algorithm executed by the M support
  stations on behalf of requesting MHs (the paper's Algorithm L2).
* :class:`R1Mutex` -- Le Lann's token ring formed by the N mobile hosts
  (baseline).
* :class:`R2Mutex` -- the token ring formed by the M support stations
  with per-MSS request/grant queues (Algorithm R2), plus the ``R2'``
  fairness counter and the ``R2''`` token-list variant.

Both two-tier algorithms reuse the *same* static-substrate
implementations (:mod:`repro.mutex.lamport_core`,
:mod:`repro.mutex.ring_core`) as the baselines -- mirroring the paper's
point that only the *placement* of the algorithm changes, not the
algorithm itself.

Names load on first access (PEP 562, the pattern :mod:`repro` uses):
``from repro.mutex import L2Mutex`` imports :mod:`repro.mutex.l2` and
the cores it runs on, not the other three algorithms.
"""

from repro import _lazy_exports

_SOURCE_OF, __getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.mutex.resource": ("AccessRecord", "CriticalResource"),
    "repro.mutex.lamport_core": ("LamportMutexNode", "MutexTransport"),
    "repro.mutex.ring_core": ("RingNode", "Token"),
    "repro.mutex.l1": ("L1Mutex",),
    "repro.mutex.l2": ("L2Mutex",),
    "repro.mutex.r1": ("R1Mutex",),
    "repro.mutex.r2": ("R2Mutex", "R2Variant"),
})

__all__ = sorted(_SOURCE_OF)
