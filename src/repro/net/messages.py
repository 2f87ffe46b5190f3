"""Message envelope shared by every protocol in the library.

A :class:`Message` is a routing envelope; the protocol-specific content
lives in ``payload`` (a small ``typing.NamedTuple`` defined next to the
protocol: immutable, because the M-1 copies of one broadcast share it).
``kind`` is the dispatch key: hosts register one handler per
kind, namespaced by protocol (``"l2.request"``, ``"lv.update"``, ...).
The envelope realizes the paper's Section 2 message taxonomy (fixed, wireless, search).

The positional field order ``kind, src, dst, payload, scope`` is part
of the contract: the host-level senders build every hot envelope as
``Message(kind, src, dst, payload, scope)``.
"""

from __future__ import annotations

from typing import Any


class Message:
    """A routable message.

    Attributes:
        kind: dispatch key, namespaced by protocol (``"l2.reply"``).
        src: id of the sending host.
        dst: id of the destination host.
        payload: protocol-specific content (any object).
        scope: metrics scope the transmission is accounted under.
        wireless_seq: sequence number stamped by the wireless downlink
            (MSS -> MH direction only); ``None`` elsewhere.
        trace_id: id of the trace event that sent this message, stamped
            by the network when tracing is enabled; the matching receive
            event uses it as its causal parent.  ``None`` when tracing
            is off (the default).

    Equality is identity: no reader compares two envelopes.
    """

    __slots__ = ("kind", "src", "dst", "payload", "scope", "wireless_seq",
                 "trace_id")

    def __init__(
        self,
        kind: str,
        src: str,
        dst: str,
        payload: Any = None,
        scope: str = "default",
        wireless_seq: int | None = None,
        trace_id: int | None = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.scope = scope
        self.wireless_seq = wireless_seq
        self.trace_id = trace_id
