"""Concrete workload drivers.

Poisson drivers exercising the paper's Section 3-5 algorithms.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.errors import ConfigurationError
from repro.sim import PoissonProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class MutexWorkload:
    """Poisson mutual exclusion request arrivals.

    Works with any algorithm object exposing ``request(mh_id)`` and an
    ``on_complete`` callback attribute (L2Mutex, R2Mutex, ProxiedMutex).
    At most one request per MH is outstanding at a time, matching
    Lamport's single-outstanding-request discipline; arrivals landing
    while a request is pending (or while the MH is detached) are
    dropped and counted.

    Args:
        network: the simulated system.
        mutex: the algorithm under test.
        mh_ids: requesting mobile hosts.
        request_rate: expected requests per MH per time unit.
        rng: randomness source.
    """

    def __init__(
        self,
        network: "Network",
        mutex,
        mh_ids: List[str],
        request_rate: float,
        rng: random.Random,
    ) -> None:
        if request_rate <= 0:
            raise ConfigurationError("request_rate must be positive")
        self.network = network
        self.mutex = mutex
        self.issued = 0
        self.dropped = 0
        self.completed = 0
        self._outstanding: Set[str] = set()
        self._chained = getattr(mutex, "on_complete", None)
        mutex.on_complete = self._on_complete
        self._processes = [
            PoissonProcess(
                network.scheduler,
                request_rate,
                partial(self._try_request, mh_id),
                rng=random.Random(rng.getrandbits(64)),
            )
            for mh_id in mh_ids
        ]

    def _on_complete(self, mh_id: str) -> None:
        self.completed += 1
        self._outstanding.discard(mh_id)
        if self._chained is not None:
            self._chained(mh_id)

    def stop(self) -> None:
        """Stop issuing new requests."""
        for process in self._processes:
            process.stop()

    def set_rate(self, request_rate: float) -> None:
        """Change the per-MH request rate (diurnal load curves)."""
        for process in self._processes:
            process.set_rate(request_rate)

    def request_now(self, mh_id: str) -> None:
        """Issue one request immediately, outside the Poisson arrivals.

        Honours the same single-outstanding-request discipline as the
        random arrivals (a duplicate or detached request is dropped and
        counted), so scheduled scenario events and background traffic
        compose safely.
        """
        self._try_request(mh_id)

    def _try_request(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if mh_id in self._outstanding or not mh.is_connected:
            self.dropped += 1
            return
        self._outstanding.add(mh_id)
        self.issued += 1
        self.mutex.request(mh_id)


class GroupMessagingWorkload:
    """Poisson group-message traffic from random members.

    Args:
        network: the simulated system.
        group: any strategy exposing ``send(sender, payload)`` and a
            ``members`` list.
        message_rate: expected group messages per time unit (for the
            whole group, not per member).
        rng: randomness source.
        sender_chooser: optional override for picking the sender.
    """

    def __init__(
        self,
        network: "Network",
        group,
        message_rate: float,
        rng: random.Random,
        sender_chooser: Optional[Callable[[], str]] = None,
    ) -> None:
        if message_rate <= 0:
            raise ConfigurationError("message_rate must be positive")
        self.network = network
        self.group = group
        self.rng = rng
        self.sent = 0
        self.dropped = 0
        self._choose = sender_chooser or self._any_member
        self._process = PoissonProcess(
            network.scheduler,
            message_rate,
            self._try_send,
            rng=random.Random(rng.getrandbits(64)),
        )

    def stop(self) -> None:
        """Stop sending new group messages."""
        self._process.stop()

    def set_rate(self, message_rate: float) -> None:
        """Change the group message rate (diurnal load curves)."""
        self._process.set_rate(message_rate)

    def _any_member(self) -> str:
        """The default sender chooser: a uniformly drawn member."""
        return self.rng.choice(self.group.members)

    def _try_send(self) -> None:
        sender = self._choose()
        mh = self.network.mobile_host(sender)
        if not mh.is_connected:
            self.dropped += 1
            return
        self.sent += 1
        self.group.send(sender, ("msg", self.sent))
