"""Reliable FIFO-exactly-once delivery over lossy fixed links.

The paper *assumes* a reliable, sequenced fixed network; once a
:class:`~repro.faults.FaultInjector` makes links lossy, this layer
recovers the assumption so every algorithm above it keeps its
correctness proof:

* per directed MSS pair, data messages carry monotonically increasing
  sequence numbers;
* the receiver acks every data message it sees, suppresses duplicates,
  buffers out-of-order arrivals, and releases messages to the host
  strictly in sequence order (restoring FIFO);
* the sender retransmits unacked messages on a timer with exponential
  backoff, up to a retry cap;
* a message that exhausts its retries is given up (e.g. the destination
  crashed for good); data envelopes advertise the sender's lowest seq
  that may still arrive, so the receiver can skip permanent gaps instead
  of stalling the channel head-of-line forever.

The layer is transparent: :meth:`Network.send_fixed` routes through it
automatically once installed, so protocols and benchmarks run unchanged.
Every physical transmission -- originals, retransmits and acks -- is
accounted in the metrics under the wrapped message's scope, which is how
``bench_a8_fault_recovery`` prices recovery in the paper's currency.
Each recovery action is one :meth:`Network.fault` call -- counted as
``rel.retransmit``, ``rel.give_up``, ``rel.dup_suppressed`` or
``rel.gap_skipped`` and traced under the same name -- so the counts are
read with ``metrics.fault_total(name)``; the layer keeps none of its own.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hosts.mss import MobileSupportStation
    from repro.net.network import Network
    from repro.sim.scheduler import Event

KIND_DATA = "rel.data"
KIND_ACK = "rel.ack"


class RelData(NamedTuple):
    """Payload of a reliable data envelope."""

    seq: int
    #: lowest sequence number the sender may still (re)transmit on this
    #: channel; everything below is either acked or given up, so the
    #: receiver can release buffered messages past a permanent gap.
    floor: int
    inner: Message


class RelAck(NamedTuple):
    """Payload of a reliable ack envelope."""

    seq: int


class _TxChannel:
    __slots__ = ("next_seq", "unacked")

    def __init__(self) -> None:
        self.next_seq = 1
        #: seq -> (envelope, retransmit timer event, attempts so far)
        self.unacked: Dict[int, Tuple[Message, "Event", int]] = {}


class _RxChannel:
    __slots__ = ("next_expected", "buffered")

    def __init__(self) -> None:
        self.next_expected = 1
        self.buffered: Dict[int, Message] = {}


class ReliableTransport:
    """Per-link sequencing, acks, retransmission and dedup for MSS pairs.

    Args:
        network: the network to wrap.
        timeout: initial retransmit timer (should exceed one round trip).
        backoff: multiplicative backoff factor applied per retry.
        max_retries: retransmissions allowed before giving a message up.
        jitter: fraction of every retransmit delay randomized -- each
            timer is scaled by a uniform draw from ``[1-jitter,
            1+jitter]``.  Without it, messages stranded by one
            partition all back off in lockstep and retransmit as a
            synchronized storm the instant the partition heals; jitter
            spreads that burst out.  ``0.0`` (the default) draws
            nothing from the RNG, keeping runs byte-identical to the
            un-jittered channel.
        max_delay: cap applied to the backed-off delay before jitter,
            so retry timers stay bounded through long outages.
            ``None`` leaves the exponential schedule uncapped.
        rng: randomness source for jitter draws (seeded by the caller
            for reproducibility; only consulted when ``jitter > 0``).
    """

    def __init__(
        self,
        network: "Network",
        timeout: float = 4.0,
        backoff: float = 1.5,
        max_retries: int = 10,
        jitter: float = 0.0,
        max_delay: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if timeout <= 0:
            raise SimulationError("retransmit timeout must be positive")
        if backoff < 1.0:
            raise SimulationError("backoff factor must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")
        if max_delay is not None and max_delay < timeout:
            raise SimulationError(
                "max_delay cannot be below the initial timeout"
            )
        self.network = network
        self.timeout = timeout
        self.backoff = backoff
        self.max_retries = max_retries
        self.jitter = jitter
        self.max_delay = max_delay
        self._rng = rng if rng is not None else random.Random(0)
        self._tx: Dict[Tuple[str, str], _TxChannel] = {}
        self._rx: Dict[Tuple[str, str], _RxChannel] = {}
        self._attached: set = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Attach receive handlers to every registered MSS."""
        for mss_id in self.network.mss_ids():
            self.attach(self.network.mss(mss_id))

    def attach(self, mss: "MobileSupportStation") -> None:
        """Attach receive handlers to one MSS (idempotent)."""
        if mss.host_id in self._attached:
            return
        self._attached.add(mss.host_id)
        mss.register_handler(KIND_DATA, self._on_data)
        mss.register_handler(KIND_ACK, self._on_ack)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send ``message`` between two MSSs with reliable FIFO delivery."""
        channel = (message.src, message.dst)
        tx = self._tx.get(channel)
        if tx is None:
            tx = self._tx[channel] = _TxChannel()
        seq = tx.next_seq
        tx.next_seq += 1
        trace = self.network._trace
        if trace.enabled:
            # Logical send: the protocol-level receive at the far end
            # parents to this event, so causality survives however many
            # physical envelope transmissions the channel needs.
            message.trace_id = trace.emit(
                "rel.send",
                scope=message.scope,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                seq=seq,
            )
        self._transmit(channel, seq, message, attempt=0)

    def _transmit(
        self,
        channel: Tuple[str, str],
        seq: int,
        inner: Message,
        attempt: int,
    ) -> None:
        src, dst = channel
        tx = self._tx[channel]
        if attempt > 0:
            self.network.fault(
                "rel.retransmit", scope=inner.scope, src=src, dst=dst,
                kind=inner.kind, parent=inner.trace_id, seq=seq,
                attempt=attempt,
            )
        # Floor = lowest seq that may still arrive on this channel --
        # everything unacked including the message going out right now.
        floor = min(min(tx.unacked), seq) if tx.unacked else seq
        envelope = Message(
            KIND_DATA, src, dst, RelData(seq, floor, inner), inner.scope
        )
        delay = self.retransmit_delay(attempt)
        timer = self.network.scheduler.schedule(
            delay, self._on_timeout, channel, seq
        )
        tx.unacked[seq] = (envelope, timer, attempt)
        self.network._send_fixed_raw(envelope)

    def retransmit_delay(self, attempt: int) -> float:
        """The (capped, jittered) retransmit timer for ``attempt``."""
        delay = self.timeout * (self.backoff ** attempt)
        if self.max_delay is not None and delay > self.max_delay:
            delay = self.max_delay
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def _on_timeout(self, channel: Tuple[str, str], seq: int) -> None:
        tx = self._tx.get(channel)
        if tx is None or seq not in tx.unacked:
            return
        envelope, _, attempt = tx.unacked.pop(seq)
        if attempt >= self.max_retries:
            # Destination unreachable for the whole backoff schedule
            # (e.g. crashed and never recovered): give the message up.
            inner = envelope.payload.inner
            self.network.fault(
                "rel.give_up", scope=inner.scope, src=channel[0],
                dst=channel[1], kind=inner.kind, parent=inner.trace_id,
                seq=seq, attempts=attempt + 1,
            )
            return
        self._transmit(
            channel, seq, envelope.payload.inner, attempt + 1
        )

    def _on_ack(self, message: Message) -> None:
        # The ack travels dst -> src, so the data channel is reversed.
        channel = (message.dst, message.src)
        tx = self._tx.get(channel)
        if tx is not None:
            entry = tx.unacked.pop(message.payload.seq, None)
            if entry is not None:
                entry[1].cancel()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def _on_data(self, message: Message) -> None:
        data: RelData = message.payload
        channel = (message.src, message.dst)
        rx = self._rx.get(channel)
        if rx is None:
            rx = self._rx[channel] = _RxChannel()
        # Always (re-)ack: a lost ack shows up as a duplicate here.
        self.network._send_fixed_raw(
            Message(
                KIND_ACK, message.dst, message.src, RelAck(data.seq),
                message.scope,
            )
        )
        # The sender's floor proves everything below it will never
        # arrive; release buffered messages past the permanent gap.
        while rx.next_expected < data.floor:
            buffered = rx.buffered.pop(rx.next_expected, None)
            if buffered is not None:
                self._deliver(message.dst, buffered)
            else:
                self.network.fault(
                    "rel.gap_skipped", scope=message.scope,
                    src=message.src, dst=message.dst, seq=rx.next_expected,
                )
            rx.next_expected += 1
        if data.seq < rx.next_expected or data.seq in rx.buffered:
            self.network.fault(
                "rel.dup_suppressed", scope=message.scope, src=message.src,
                dst=message.dst, kind=data.inner.kind, seq=data.seq,
            )
            return
        rx.buffered[data.seq] = data.inner
        while rx.next_expected in rx.buffered:
            inner = rx.buffered.pop(rx.next_expected)
            rx.next_expected += 1
            self._deliver(message.dst, inner)

    def _deliver(self, dst_mss_id: str, inner: Message) -> None:
        self.network.mss(dst_mss_id).handle_message(inner)
