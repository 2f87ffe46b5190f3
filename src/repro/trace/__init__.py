"""Structured event tracing for protocol executions.

The trace layer turns every send, receive, handoff step, token pass,
critical-section entry/exit, fault injection and recovery action into a
:class:`TraceEvent` with a monotonically increasing id, a causal parent
id, the metrics scope, and the paper's cost category.  Install a
:class:`Tracer` on a network (``network.trace = Tracer(scheduler)`` or
``Simulation(..., trace=True)``) and export the collected events with
:func:`to_jsonl`, :func:`to_chrome` (Perfetto) or :func:`to_mermaid`.

Tracing is off by default (:data:`NULL_TRACER`) and structurally free
when disabled; enabling it never changes costs, message counts, or
randomness -- the tracer is a pure observer.

Submodule :mod:`repro.trace.walkthroughs` renders
``docs/walkthroughs/`` from traced runs of the builtin scenario specs
tagged ``walkthrough`` (``repro.scenario.run_scenario(spec,
trace=True)``; ``repro trace`` exports any builtin scenario).  This
package stays import-light because the network core imports it: names
load on first access (PEP 562, the pattern :mod:`repro` uses), so
:mod:`repro.trace.export` is compiled only for a run that exports and
:mod:`repro.trace.events` only for a run that traces; the no-op
:data:`NULL_TRACER` lives in :mod:`repro.trace.null`.
"""

from repro import _lazy_exports

_SOURCE_OF, __getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.trace.events": ("TraceEvent", "Tracer"),
    "repro.trace.export": (
        "event_to_dict", "to_chrome", "to_jsonl", "to_mermaid",
    ),
    "repro.trace.null": ("NULL_TRACER", "NullTracer"),
})

__all__ = sorted(_SOURCE_OF)
