"""Concrete workload drivers.

Poisson drivers exercising the paper's Section 3-5 algorithms.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, List, Set

from repro.errors import ConfigurationError
from repro.sim import PoissonProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class MutexWorkload:
    """Poisson mutual exclusion request arrivals.

    Works with any algorithm object exposing ``request(mh_id)`` and an
    ``on_complete`` callback attribute (L2Mutex, R2Mutex, ProxiedMutex),
    and chains its ``on_aborted`` too: a request ends completed or
    aborted (its requester was unreachable when granted), and either
    way the MH may request again.  At most one request per MH is
    outstanding at a time, matching Lamport's single-outstanding-request
    discipline; arrivals landing while a request is pending (or while
    the MH is detached) are dropped and counted.

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
        self.aborted = 0
        self._outstanding: Set[str] = set()
        self._chained = getattr(mutex, "on_complete", None)
        mutex.on_complete = self._on_complete
        self._chained_aborted = getattr(mutex, "on_aborted", None)
        mutex.on_aborted = self._on_aborted
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

    def _on_aborted(self, mh_id: str) -> None:
        self.aborted += 1
        self._outstanding.discard(mh_id)
        if self._chained_aborted is not None:
            self._chained_aborted(mh_id)

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


class _Traffic:
    """One Poisson stream of messages, sent by a subclass's
    ``_try_send``: the message drivers' shared part.

    ``sender_rng`` draws each message's sender, ``arrival_rng`` times
    the arrivals, ``sent`` counts the messages actually sent and
    ``dropped`` the arrivals whose sender was detached (they send
    nothing).
    """

    def __init__(self, network: "Network", rate: float,
                 sender_rng: random.Random,
                 arrival_rng: random.Random) -> None:
        self.network = network
        self.rng = sender_rng
        self.sent = 0
        self.dropped = 0
        self._process = PoissonProcess(
            network.scheduler, rate, self._try_send, rng=arrival_rng,
        )

    def _admit(self, sender: str) -> bool:
        """Count an arrival from ``sender``: sent if it is connected
        (the message is number ``sent``), else dropped."""
        if self.network.mobile_host(sender).is_connected:
            self.sent += 1
            return True
        self.dropped += 1
        return False

    def stop(self) -> None:
        """Stop sending new messages."""
        self._process.stop()

    def set_rate(self, rate: float) -> None:
        """Change the message rate (diurnal load curves)."""
        self._process.set_rate(rate)


class GroupMessagingWorkload(_Traffic):
    """Poisson group-message traffic from random members.

    Args:
        network: the simulated system.
        group: any strategy exposing ``send(sender, payload)`` and a
            ``members`` list.
        message_rate: expected group messages per time unit (for the
            whole group, not per member).
        rng: randomness source; each message's sender is a uniformly
            drawn member.
    """

    def __init__(
        self,
        network: "Network",
        group,
        message_rate: float,
        rng: random.Random,
    ) -> None:
        if message_rate <= 0:
            raise ConfigurationError("message_rate must be positive")
        self.group = group
        super().__init__(network, message_rate, rng,
                         random.Random(rng.getrandbits(64)))

    def _try_send(self) -> None:
        sender = self.rng.choice(self.group.members)
        if self._admit(sender):
            self.group.send(sender, ("msg", self.sent))


class MulticastWorkload(_Traffic):
    """Poisson multicasts, each from a uniformly drawn member of
    ``feed`` (an :class:`~repro.multicast.ExactlyOnceMulticast`, or any
    group with ``members`` and ``send(sender, payload)`` such as an
    :class:`~repro.groups.OrderedGroup`), at ``message_rate`` per time
    unit for the whole group."""

    def __init__(self, network: "Network", feed, message_rate: float,
                 sender_rng: random.Random,
                 arrival_rng: random.Random) -> None:
        self.feed = feed
        super().__init__(network, message_rate, sender_rng, arrival_rng)

    def _try_send(self) -> None:
        sender = self.rng.choice(self.feed.members)
        if self._admit(sender):
            self.feed.send(sender, ("m", self.sent))


class LetterWorkload(_Traffic):
    """Poisson MH-to-MH letters through ``messenger`` (a
    :class:`~repro.proxy.ProxiedMessenger`), at ``message_rate`` per
    time unit; the sender rng draws a distinct sender and addressee
    from ``mh_ids``."""

    def __init__(self, network: "Network", messenger, mh_ids: List[str],
                 message_rate: float, sender_rng: random.Random,
                 arrival_rng: random.Random) -> None:
        self.messenger = messenger
        self.mh_ids = list(mh_ids)
        super().__init__(network, message_rate, sender_rng, arrival_rng)

    def _try_send(self) -> None:
        src, dst = self.rng.sample(self.mh_ids, 2)
        if self._admit(src):
            self.messenger.send(src, dst, ("letter", self.sent))
