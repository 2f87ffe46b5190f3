"""The no-op tracer every network starts with.

:data:`NULL_TRACER` shares the :class:`~repro.trace.events.Tracer`
interface and does nothing, so an untraced run -- every experiment of
the paper's Sections 3-5 unless tracing is asked for -- never compiles
the trace ledger in :mod:`repro.trace.events`.
"""

from __future__ import annotations

from typing import Any, Optional


class _NullContext:
    """Shared do-nothing context manager used by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


def _null_append(*args: Any, **kwargs: Any) -> None:
    """The site emitter :class:`NullTracer` hands out."""
    return None


class NullTracer:
    """The default no-op tracer.

    Shares the :class:`~repro.trace.events.Tracer` interface; every
    method is a stub.  Hot paths additionally guard on :attr:`enabled`
    so a disabled run pays at most one attribute load per
    instrumentation point.
    """

    enabled = False
    events: list = []

    def emit(self, etype: str, **kwargs: Any) -> None:
        return None

    def call_site_batch(self, etype: str, category: Optional[str] = None):
        return _null_append

    def context(self, event_id: Optional[int]) -> _NullContext:
        return _NULL_CONTEXT

    def clear(self) -> None:
        return None


#: the shared no-op tracer installed on every network by default.
NULL_TRACER = NullTracer()
