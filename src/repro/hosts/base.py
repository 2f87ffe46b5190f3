"""Base class shared by mobile hosts and support stations.

Both host roles of the paper's Section 2 model build on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.errors import ProtocolError, SimulationError
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

Handler = Callable[[Message], None]


class Host:
    """A named message-handling endpoint.

    Protocols attach behaviour by registering one handler per message
    kind; the host dispatches on exact kind match.  Kinds are namespaced
    by protocol (``"l2.request"``), so independent protocols can coexist
    on the same host without collisions.
    """

    def __init__(self, host_id: str, network: "Network") -> None:
        if not host_id:
            raise SimulationError("host_id must be a nonempty string")
        self.host_id = host_id
        self.network = network
        #: ``True`` while this host is down (set by the fault injector
        #: for a MSS, by ``crash()`` for a MH); a crashed host consumes
        #: nothing.
        self.crashed = False
        self._handlers: Dict[str, Handler] = {}

    def register_handler(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``kind``.

        Re-registering a kind is an error: it almost always means two
        protocol instances were attached to the same host.
        """
        if kind in self._handlers:
            raise SimulationError(
                f"{self.host_id}: handler for {kind!r} already registered"
            )
        self._handlers[kind] = handler

    def unregister_handler(self, kind: str) -> None:
        """Remove the handler for ``kind`` (no-op if absent)."""
        self._handlers.pop(kind, None)

    def handle_message(self, message: Message) -> None:
        """Dispatch an arriving message to its registered handler.

        When tracing is enabled, a ``recv`` event (parented to the
        message's send event) is recorded and pushed as the causal
        context around the handler, so everything the handler does --
        sends, state changes -- traces back to this receipt.

        The single frame between the scheduler and the handler: an
        arrival at a crashed host runs no handler and goes to
        :meth:`_arrived_while_crashed` instead.
        """
        if self.crashed:
            self._arrived_while_crashed(message)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ProtocolError(
                f"{self.host_id}: no handler for message kind "
                f"{message.kind!r} (from {message.src})"
            )
        network = self.network
        trace = network._trace
        if trace.enabled:
            recv_id = network._batch_recv(
                message.scope, message.src, self.host_id,
                message.kind, message.trace_id,
            )
            # Inline trace.context(recv_id): the with-statement plus
            # context-object allocation is measurable at this call rate.
            stack = trace._stack
            stack.append(recv_id)
            try:
                handler(message)
            finally:
                stack.pop()
        else:
            handler(message)

    def _arrived_while_crashed(self, message: Message) -> None:
        """Account for ``message`` reaching this host while it is down
        (the message itself is dropped; the default records nothing)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.host_id})"
