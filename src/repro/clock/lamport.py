"""Lamport logical clocks (Lamport 1978, the paper's reference [11]).

Timestamps are ``(counter, node_id)`` pairs ordered lexicographically,
which yields the total order Lamport's mutual exclusion algorithm needs
(ties on the counter are broken by node id).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class Timestamp(tuple):
    """A totally ordered Lamport timestamp.

    Subclasses ``tuple`` so every comparison is a C-level tuple
    comparison: the mutex request queue takes a ``min()`` over
    timestamps on each message arrival, and a Python-level ``__lt__``
    there dominated whole-simulation profiles.  The order is the same
    lexicographic ``(counter, node_id)`` the algorithm requires.
    """

    __slots__ = ()

    def __new__(cls, counter: int, node_id: str) -> "Timestamp":
        return tuple.__new__(cls, (counter, node_id))

    def __getnewargs__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the two-argument
        # __new__; the tuple default would pass the pair as one.
        return (self[0], self[1])

    @property
    def counter(self) -> int:
        """The Lamport counter component."""
        return self[0]

    @property
    def node_id(self) -> str:
        """The tie-breaking node id component."""
        return self[1]

    def __repr__(self) -> str:
        return f"({self[0]}, {self[1]})"


class LamportClock:
    """A per-node logical clock.

    ``tick()`` stamps a local event (or a send); ``merge(ts)`` /
    ``witness(ts)`` merge a received timestamp, advancing the local
    counter past it as Lamport's rules require.
    """

    def __init__(self, node_id: str) -> None:
        if not node_id:
            raise ConfigurationError("node_id must be nonempty")
        self.node_id = node_id
        self._counter = 0

    @property
    def counter(self) -> int:
        """Current value of the local counter."""
        return self._counter

    def tick(self) -> Timestamp:
        """Advance the clock for a local/send event; return the stamp."""
        self._counter += 1
        return Timestamp(self._counter, self.node_id)

    def merge(self, timestamp: Timestamp) -> None:
        """Merge a received timestamp and advance (receive event).

        :meth:`witness` for receivers that do not read the resulting
        stamp: the counter moves exactly the same, no stamp is built.
        """
        received = timestamp[0]
        counter = self._counter
        self._counter = (received if received > counter else counter) + 1

    def witness(self, timestamp: Timestamp) -> Timestamp:
        """:meth:`merge`, then return the stamp of the receive event."""
        self.merge(timestamp)
        return Timestamp(self._counter, self.node_id)
