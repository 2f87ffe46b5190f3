"""Generic unidirectional token ring (Le Lann, the paper's reference [12]).

The static substrate reused by both tiers: in R1 the ring members are
the N mobile hosts, in R2 they are the M support stations.  A single
token circulates; a member holds it while servicing local needs and then
forwards it to its successor.

The token carries the bookkeeping fields used by the paper's fairness
variants: ``token_val`` (R2': a traversal counter compared against each
MH's ``access_count``) and ``token_list`` (R2'': ``<MSS, MH>`` pairs of
accesses during the current traversal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Tuple

from repro.errors import ConfigurationError, ProtocolError


@dataclass
class Token:
    """The single circulating token."""

    token_val: int = 0
    token_list: List[Tuple[str, str]] = field(default_factory=list)
    traversals: int = 0
    hops: int = 0
    #: regeneration epoch (fault-tolerant rings only).  A token whose
    #: epoch lags the protocol's current epoch is a stale survivor of a
    #: crash and is discarded on arrival.
    epoch: int = 0


class RingNode:
    """One member of the logical ring.

    Args:
        node_id: this member's id (must appear in ``ring_order``).
        ring_order: all member ids in ring order.
        send: function ``send(dst, kind, token)`` forwarding the token.
        kind_prefix: namespace for the token message kind.
        on_token: callback ``on_token(token, forward)`` invoked when the
            token arrives; the callback must eventually call
            ``forward()`` exactly once to pass the token on.

    The member at ``ring_order[0]`` is the ring *head*: each time the
    token arrives there (after the initial injection), a traversal is
    complete and ``token.token_val``/``token.traversals`` advance --
    the R2' rule "incremented every time it completes one traversal".
    """

    def __init__(
        self,
        node_id: str,
        ring_order: List[str],
        send: Callable[[str, str, Token], None],
        kind_prefix: str,
        on_token: Callable[[Token, Callable[[], None]], None],
    ) -> None:
        if node_id not in ring_order:
            raise ConfigurationError(
                f"{node_id} is not a member of the ring"
            )
        if len(set(ring_order)) != len(ring_order):
            raise ConfigurationError("ring members must be unique")
        self.node_id = node_id
        self.ring_order = list(ring_order)
        self._send = send
        self.kind_token = f"{kind_prefix}.token"
        self.on_token = on_token
        self._has_token = False
        self.tokens_seen = 0

    @property
    def is_head(self) -> bool:
        """Whether this member is the ring head (traversal counter)."""
        return self.node_id == self.ring_order[0]

    @property
    def has_token(self) -> bool:
        """Whether the token is currently held here."""
        return self._has_token

    def successor(self) -> str:
        """The next member in ring order."""
        index = self.ring_order.index(self.node_id)
        return self.ring_order[(index + 1) % len(self.ring_order)]

    def inject_token(self, token: Token) -> None:
        """Create the token at this member (simulation setup)."""
        self._receive(token, initial=True)

    def reset(self) -> None:
        """Forget any held token (crash recovery / regeneration)."""
        self._has_token = False

    def handle_token(self, token: Token) -> None:
        """Wire this to the host's dispatcher for the token kind."""
        token.hops += 1
        self._receive(token, initial=False)

    def _receive(self, token: Token, initial: bool) -> None:
        if self._has_token:
            raise ProtocolError(
                f"{self.node_id}: token arrived while already held"
            )
        self._has_token = True
        self.tokens_seen += 1
        if self.is_head and not initial:
            token.traversals += 1
            token.token_val += 1
        # A partial, not a closure: a deep-copied (forked) system gets
        # its own node and token in the forward it holds.
        self.on_token(token, partial(self._forward, token, [False]))

    def _forward(self, token: Token, forwarded: List[bool]) -> None:
        """The one-shot ``forward()`` of one token arrival."""
        if forwarded[0]:
            raise ProtocolError(f"{self.node_id}: token forwarded twice")
        forwarded[0] = True
        self._has_token = False
        self._send(self.successor(), self.kind_token, token)
