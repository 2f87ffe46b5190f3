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

:func:`build` makes an algorithm from its name in :data:`ALGORITHMS`;
``repro mutex`` and a scenario's mutex workload both build through it
(:func:`repro.workload.build`).
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

#: algorithm name -> class name: ``repro mutex --algorithm``'s choices
#: and a scenario workload's ``algorithm``.
ALGORITHMS = {"L1": "L1Mutex", "L2": "L2Mutex", "R1": "R1Mutex",
              "R2": "R2Mutex", "R2'": "R2Mutex", "R2''": "R2Mutex"}

#: the paper's baselines, run by the MHs themselves; a request workload
#: drives only the two-tier algorithms.
BASELINES = ("L1", "R1")


def build(name: str, network, mh_ids, resource, cs_duration: float,
          on_complete=None, requests=(), scope=None, **ring_options):
    """Build mutex algorithm ``name`` and start its token ring.

    L1 and R1 run on the MHs ``mh_ids``, L2 and R2 at the stations; the
    R2 family's variant is ``R2Variant(name)`` and ``ring_options``
    (``token_timeout``, ``max_traversals``) go to its constructor.
    ``scope`` replaces the class's own metrics scope (``"R2"`` for the
    whole R2 family).  Each MH in ``requests`` requests the region
    before a ring starts, so R1's first token visit can already grant
    one.
    """
    algorithm = __getattr__(ALGORITHMS[name])
    options = {"cs_duration": cs_duration, "on_complete": on_complete}
    if scope is not None:
        options["scope"] = scope
    if name in BASELINES:
        mutex = algorithm(network, mh_ids, resource, **options)
    elif name == "L2":
        mutex = algorithm(network, resource, **options)
    else:
        mutex = algorithm(network, resource,
                          variant=__getattr__("R2Variant")(name),
                          **options, **ring_options)
    for mh_id in requests:
        mutex.request(mh_id)
    if hasattr(mutex, "start"):  # R1 and R2: inject the token
        mutex.start()
    return mutex
