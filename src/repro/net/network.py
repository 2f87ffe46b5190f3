"""The network core: wired channels, wireless cells, MH delivery service.

The :class:`Network` owns no protocol logic.  It transports
:class:`~repro.net.messages.Message` envelopes between registered hosts,
enforces the FIFO guarantees of the system model, accounts every
transmission in the :class:`~repro.metrics.MetricsCollector`, and offers
:meth:`Network.send_to_mh` -- the "locate then deliver, retrying across
moves" service the paper's algorithms rely on.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.errors import (
    NotConnectedError,
    SimulationError,
    UnknownHostError,
)
from repro.metrics import MetricsCollector
from repro.net.config import NetworkConfig
from repro.net.latency import ConstantLatency
from repro.net.messages import Message
from repro.net.search import (
    AbstractSearch,
    OutcomeCallback,
    SearchOutcome,
    SearchProtocol,
)
from repro.sim import Scheduler
from repro.trace.events import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.hosts.mh import MobileHost
    from repro.hosts.mss import MobileSupportStation
    from repro.net.reliable import ReliableTransport
    from repro.scale.store import PopulationStore

DeliveredCallback = Callable[[Message], None]
DisconnectedCallback = Callable[[SearchOutcome], None]


class Network:
    """Transport fabric connecting MSSs and MHs.

    Args:
        scheduler: the shared discrete-event scheduler.
        metrics: collector every transmission is recorded into.
        config: timing knobs (latencies, transit and search delays).
        search_protocol: how non-local MHs are located
            (default: the paper's abstract scalar-cost search).
        rng: source of randomness for latency models.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        metrics: Optional[MetricsCollector] = None,
        config: Optional[NetworkConfig] = None,
        search_protocol: Optional[SearchProtocol] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.scheduler = scheduler
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.config = config if config is not None else NetworkConfig()
        self.search_protocol = (
            search_protocol if search_protocol is not None else AbstractSearch()
        )
        self.rng = rng if rng is not None else random.Random(0)
        self._mss: Dict[str, "MobileSupportStation"] = {}
        self._mh: Dict[str, "MobileHost"] = {}
        # FIFO enforcement: last scheduled arrival per directed channel.
        self._last_arrival: Dict[tuple[str, str], float] = {}
        # Downlink sequence counters per (mss, mh), reset on each join.
        self._downlink_seq: Dict[tuple[str, str], int] = {}
        self.lost_wireless_messages = 0
        #: fault injector; ``None`` keeps the paper's reliable model.
        self.faults: Optional["FaultInjector"] = None
        #: array-backed passive-crowd store (``repro.scale``); ``None``
        #: keeps every MH a full object.
        self.population: Optional["PopulationStore"] = None
        #: reliable-delivery layer wrapping :meth:`send_fixed`.
        self.reliable: Optional["ReliableTransport"] = None
        # Trace sink (behind the ``trace`` property): the shared no-op
        # tracer unless a Tracer is installed.  ``_trace_on`` mirrors
        # ``trace.enabled`` as a plain bool so per-message guards are a
        # single attribute load instead of null-object dispatch.
        self._trace = NULL_TRACER
        self._trace_on = False
        # Fast-path state derived once (refreshed on trace/faults
        # installation): constant-latency values, whether a fixed
        # transmission can be delayed, dropped or drawn, and the site
        # emitters.
        self._fixed_const: Optional[float] = None
        self._wireless_const: Optional[float] = None
        self._fixed_inline = False
        self._refresh_fast_paths()

    # ------------------------------------------------------------------
    # Fast-path wiring
    # ------------------------------------------------------------------

    @property
    def trace(self):
        """The trace sink (a :class:`~repro.trace.Tracer` or the shared
        no-op tracer).  A pure observer: swapping it never changes
        costs, ordering, or randomness.  Assigning here rebinds the
        network's fast paths, so always install tracers via this
        attribute."""
        return self._trace

    @trace.setter
    def trace(self, tracer) -> None:
        self._trace = tracer
        self._refresh_fast_paths()

    def _refresh_fast_paths(self) -> None:
        """Re-derive the precomputed hot-path state.

        Called whenever a tracer or fault injector is installed (and
        once at construction).  Latency models are sampled from
        :attr:`config` here: replacing ``config`` or its latency models
        after construction must be followed by another call (repo code
        never does; the supported idiom is constructing a fresh
        :class:`Network`).
        """
        self._trace_on = bool(getattr(self._trace, "enabled", True))
        # One site emitter per hot instrumentation point (see
        # Tracer.call_site_batch): the ledger's row appender.  Sites
        # call it behind the ``_trace_on`` guard.
        site = self._trace.call_site_batch
        self._batch_send_fixed = site("send.fixed", "fixed")
        self._batch_send_local = site("send.local")
        self._batch_recv = site("recv")
        self._batch_wireless_up = site("send.wireless_up", "wireless")
        self._batch_wireless_down = site("send.wireless_down", "wireless")
        self._batch_mss_handoff = site("mss.handoff")
        self._batch_mh_leave = site("mh.leave")
        self._batch_mh_join = site("mh.join")
        self._batch_search_charge = site("search.charge", "search")
        self._batch_search_probes = site("search.probes", "search_probe")
        fixed = self.config.fixed_latency
        self._fixed_const = (
            fixed.value if isinstance(fixed, ConstantLatency) else None
        )
        wireless = self.config.wireless_latency
        self._wireless_const = (
            wireless.value if isinstance(wireless, ConstantLatency) else None
        )
        # When nothing can perturb a fixed-network transmission (no
        # fault injector, constant latency) send_fixed transmits in its
        # own frame, traced or not; decided once here instead of per
        # message.
        self._fixed_inline = (
            self.faults is None and self._fixed_const is not None
        )

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------

    def register_mss(self, mss: "MobileSupportStation") -> None:
        """Add a mobile support station to the fixed network."""
        if mss.host_id in self._mss:
            raise SimulationError(f"duplicate MSS id: {mss.host_id}")
        self._mss[mss.host_id] = mss
        if self.reliable is not None:
            self.reliable.attach(mss)

    def register_mh(self, mh: "MobileHost") -> None:
        """Add a mobile host to the system."""
        if mh.host_id in self._mh:
            raise SimulationError(f"duplicate MH id: {mh.host_id}")
        if mh.host_id in self._mss:
            raise SimulationError(
                f"id {mh.host_id} already used by a MSS"
            )
        self._mh[mh.host_id] = mh

    def mss(self, mss_id: str) -> "MobileSupportStation":
        """Look up a MSS by id."""
        try:
            return self._mss[mss_id]
        except KeyError:
            raise UnknownHostError(f"unknown MSS: {mss_id}") from None

    def unregister_mh(self, mh_id: str) -> None:
        """Drop a MH object (the population store's demotion path)."""
        self._mh.pop(mh_id, None)

    def install_population(self, population: "PopulationStore") -> None:
        """Install a bound-once array-backed population store.

        Once installed, :meth:`mobile_host` transparently promotes
        passive store entries to full objects on first touch.
        """
        if self.population is not None:
            raise SimulationError("population store already installed")
        self.population = population

    def mobile_host(self, mh_id: str) -> "MobileHost":
        """Look up a MH by id.

        With a population store installed, a passive (array-backed) MH
        is silently promoted to a full object here -- the single choke
        point that makes the store transparent to protocols, mobility
        models, and search.
        """
        try:
            return self._mh[mh_id]
        except KeyError:
            population = self.population
            if population is not None and population.owns(mh_id):
                return population.promote(mh_id)
            raise UnknownHostError(f"unknown MH: {mh_id}") from None

    def mss_ids(self) -> List[str]:
        """Ids of all registered MSSs, in registration order."""
        return list(self._mss)

    def mh_ids(self) -> List[str]:
        """Ids of all MHs: population-store ids in index order (when a
        store is installed), then any independently registered objects.

        O(N) with a store installed -- a million-entry list.  Loops
        over the whole population belong in the store's batched
        operations, not here.
        """
        ids = list(self._mh)
        population = self.population
        if population is not None:
            extras = [i for i in ids if not population.covers(i)]
            return population.all_ids() + extras
        return ids

    def notify_mh_joined(self, mh_id: str, mss_id: str) -> None:
        """Inform location-maintaining search protocols about a join."""
        self.search_protocol.on_mh_joined(self, mh_id, mss_id)

    def notify_mh_crashed(self, mh_id: str) -> None:
        """Have location-caching search protocols purge the crashed MH."""
        self.search_protocol.on_mh_crashed(self, mh_id)

    # ------------------------------------------------------------------
    # Fault injection and reliable delivery (both optional)
    # ------------------------------------------------------------------

    def install_faults(self, injector: "FaultInjector") -> None:
        """Install a bound-once fault injector on this network."""
        if self.faults is not None:
            raise SimulationError("fault injector already installed")
        self.faults = injector
        injector.bind(self)
        self._refresh_fast_paths()

    def fault(self, name: str, etype: Optional[str] = None, *,
              scope: str = "default", src: Optional[str] = None,
              dst: Optional[str] = None, kind: Optional[str] = None,
              parent: Optional[int] = None,
              **detail: object) -> Optional[int]:
        """Record fault ``name`` once: count it in the metrics and, when
        a ledger is installed, trace it as an ``etype`` event (by
        default of the same name).  Returns the event id, or ``None``
        untraced -- a valid argument to ``trace.context``."""
        self.metrics.record_fault(name)
        if self._trace_on:
            return self._trace.emit(
                etype or name, scope=scope, src=src, dst=dst, kind=kind,
                parent=parent, **detail,
            )
        return None

    def install_reliable(self, **kwargs: object) -> "ReliableTransport":
        """Install the reliable-delivery layer over the fixed network.

        Keyword arguments are forwarded to
        :class:`~repro.net.reliable.ReliableTransport` (``timeout``,
        ``backoff``, ``max_retries``, ``jitter``, ``max_delay``,
        ``rng``).
        """
        from repro.net.reliable import ReliableTransport

        if self.reliable is not None:
            raise SimulationError("reliable transport already installed")
        self.reliable = ReliableTransport(self, **kwargs)
        self.reliable.install()
        return self.reliable

    def is_mss_crashed(self, mss_id: str) -> bool:
        """Whether ``mss_id`` is currently down (always False fault-free)."""
        return self.mss(mss_id).crashed

    def is_mh_crashed(self, mh_id: str) -> bool:
        """Whether MH ``mh_id`` is currently down (always False
        fault-free).  Reads the population store directly for passive
        MHs -- a liveness probe must not force a promotion."""
        population = self.population
        if population is not None and population.owns(mh_id):
            return population.is_crashed(mh_id)
        return self.mobile_host(mh_id).crashed

    def next_alive_mss(self, start_id: str) -> Optional[str]:
        """The first non-crashed MSS at or after ``start_id`` in
        registration order (wrapping), or ``None`` if all are down."""
        ids = self.mss_ids()
        start = ids.index(start_id)
        for offset in range(len(ids)):
            candidate = ids[(start + offset) % len(ids)]
            if not self.mss(candidate).crashed:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Fixed network (MSS <-> MSS): reliable, sequenced, arbitrary latency
    # ------------------------------------------------------------------

    def send_fixed(self, message: Message) -> None:
        """Send ``message`` between two MSSs over the static network.

        A message a MSS sends to itself is delivered locally after zero
        delay and is not a network message (no cost recorded).  When a
        reliable transport is installed, inter-MSS messages are wrapped
        in its sequenced envelopes (the transport's own envelopes pass
        through raw).
        """
        dst = self.mss(message.dst)
        if message.src == message.dst:
            if self._trace_on:
                message.trace_id = self._batch_send_local(
                    message.scope, message.src, message.dst, message.kind,
                )
            self.scheduler.post(0.0, dst.handle_message, message)
            return
        self.mss(message.src)  # validate the source exists
        if self.reliable is not None and not message.kind.startswith("rel."):
            self.reliable.send(message)
            return
        if not self._fixed_inline:
            self._send_fixed_raw(message)
            return
        # No fault injector (so no MSS can be crashed) and a constant
        # latency (so no RNG draw): step for step what _send_fixed_raw
        # does under those preconditions, minus the dead branches and
        # the forwarding frame.
        self.metrics.record_fixed(message.scope)
        if self._trace_on:
            message.trace_id = self._batch_send_fixed(
                message.scope, message.src, message.dst, message.kind,
            )
        scheduler = self.scheduler
        key = (message.src, message.dst)
        arrival = scheduler.now + self._fixed_const
        last = self._last_arrival
        previous = last.get(key)
        if previous is not None and previous > arrival:
            arrival = previous
        last[key] = arrival
        scheduler.post_at(arrival, dst.handle_message, message)

    def fan_out_fixed(self, src_id: str, dst_ids: Iterable[str], kind: str,
                      payload: object, scope: str) -> None:
        """:meth:`send_fixed` of ``Message(kind, src_id, dst, payload,
        scope)`` for each ``dst`` in ``dst_ids``, in order: in one frame
        with one ``record_fixed`` (and, when traced, one ``send.fixed``
        row per copy) unless a fault injector, a non-constant latency or
        a reliable layer is installed; then literally that loop."""
        mss = self._mss
        if (not self._fixed_inline or self.reliable is not None
                or src_id not in mss):
            for dst_id in dst_ids:
                self.send_fixed(Message(kind, src_id, dst_id, payload, scope))
            return
        post_at = self.scheduler.post_at
        arrival = self.scheduler.now + self._fixed_const
        last = self._last_arrival
        traced = self._trace_on
        sent = 0
        try:
            for dst_id in dst_ids:
                message = Message(kind, src_id, dst_id, payload, scope)
                dst = mss.get(dst_id)
                if dst is None or dst_id == src_id:
                    self.send_fixed(message)  # raises / delivers locally
                    continue
                if traced:
                    message.trace_id = self._batch_send_fixed(
                        scope, src_id, dst_id, kind)
                key = (src_id, dst_id)
                at = last.get(key)
                if at is None or at < arrival:
                    at = arrival
                last[key] = at
                post_at(at, dst.handle_message, message)
                sent += 1
        finally:  # as in the loop, copies sent before a raise are charged
            if sent:
                self.metrics.record_fixed(scope, sent)

    def _send_fixed_raw(self, message: Message) -> None:
        """One physical transmission attempt on the fixed network.

        Records the cost, then consults the fault injector: the message
        may be dropped (source crashed, partition, lossy link), delayed,
        or duplicated.  Without an injector no MSS can crash and this is
        the paper's reliable sequenced channel.
        """
        try:
            dst = self._mss[message.dst]
        except KeyError:
            raise UnknownHostError(f"unknown MSS: {message.dst}") from None
        self.metrics.record_fixed(message.scope)
        if self._trace_on:
            message.trace_id = self._batch_send_fixed(
                message.scope, message.src, message.dst, message.kind,
            )
        extra_delay = 0.0
        duplicates = 0
        if self.faults is not None:
            decision = self.faults.decide_fixed(message)
            if decision.drop:
                self.fault(
                    decision.reason, "fault.drop", scope=message.scope,
                    src=message.src, dst=message.dst, kind=message.kind,
                    parent=message.trace_id, reason=decision.reason,
                )
                return
            extra_delay = decision.extra_delay
            duplicates = decision.duplicates
            if self._trace_on and duplicates:
                self._trace.emit(
                    "fault.duplicate",
                    scope=message.scope,
                    src=message.src,
                    dst=message.dst,
                    kind=message.kind,
                    parent=message.trace_id,
                    copies=duplicates,
                )
        latency = self._fixed_const
        if latency is None:
            latency = self.config.fixed_latency(self.rng)
        # Per-channel FIFO: never arrive before the channel's previous
        # message (in-frame; hot even when every emit is skipped).
        key = (message.src, message.dst)
        last = self._last_arrival
        arrival = self.scheduler.now + latency + extra_delay
        previous = last.get(key)
        if previous is not None and previous > arrival:
            arrival = previous
        last[key] = arrival
        self.scheduler.post_at(arrival, dst.handle_message, message)
        for _ in range(duplicates):
            # A duplicate is a spurious extra copy on the wire; it does
            # not advance the channel's FIFO frontier.
            self.scheduler.post(
                self.config.fixed_latency(self.rng) + extra_delay,
                dst.handle_message,
                message,
            )

    # ------------------------------------------------------------------
    # Wireless cell (MSS <-> local MH): FIFO, prefix-loss on leave
    # ------------------------------------------------------------------

    def send_wireless_down(
        self,
        mss_id: str,
        mh_id: str,
        message: Message,
        on_lost: Optional[Callable[[Message], None]] = None,
        on_delivered: Optional[DeliveredCallback] = None,
    ) -> None:
        """Transmit ``message`` from ``mss_id`` to a MH in its cell.

        The transmission is charged immediately (the MSS uses the
        wireless medium either way); the MH's receive energy is charged
        only on successful delivery.  If the MH leaves the cell (or
        disconnects) before the message arrives, the message is lost and
        ``on_lost`` fires -- callers needing eventual delivery use
        :meth:`send_to_mh`, which retries with a fresh search.
        """
        mss = self.mss(mss_id)
        mh = self.mobile_host(mh_id)
        if mss.crashed:
            # A crashed station has no working transmitter; the message
            # is lost on the spot (no cost: nothing was transmitted).
            self.lost_wireless_messages += 1
            self.fault(
                "wireless.dropped_src_crashed", "wireless.lost",
                scope=message.scope, src=mss_id, dst=mh_id,
                kind=message.kind, reason="wireless.dropped_src_crashed",
            )
            if on_lost is not None:
                on_lost(message)
            return
        if mh_id not in mss.local_mhs:
            raise NotConnectedError(
                f"{mh_id} is not local to {mss_id}; use send_to_mh"
            )
        key = (mss_id, mh_id)
        seq = self._downlink_seq.get(key, 0) + 1
        self._downlink_seq[key] = seq
        message.wireless_seq = seq
        session = mh.session
        self.metrics.record_wireless_rx(mh_id, message.scope)
        if self._trace_on:
            message.trace_id = self._batch_wireless_down(
                message.scope, mss_id, mh_id, message.kind,
            )
        latency = self._wireless_const
        if latency is None:
            latency = self.config.wireless_latency(self.rng)
        scheduler = self.scheduler
        arrival = scheduler.now + latency
        last = self._last_arrival
        previous = last.get(key)
        if previous is not None and previous > arrival:
            arrival = previous
        last[key] = arrival
        scheduler.post_at(
            arrival,
            self._deliver_downlink,
            mss_id,
            mh,
            message,
            session,
            on_lost,
            on_delivered,
        )

    def _deliver_downlink(
        self,
        mss_id: str,
        mh: "MobileHost",
        message: Message,
        session: int,
        on_lost: Optional[Callable[[Message], None]],
        on_delivered: Optional[DeliveredCallback],
    ) -> None:
        still_here = (
            mh.is_connected
            and mh.current_mss_id == mss_id
            and mh.session == session
        )
        if not still_here:
            self.lost_wireless_messages += 1
            if self._trace_on:
                self._trace.emit(
                    "wireless.lost",
                    scope=message.scope,
                    src=mss_id,
                    dst=mh.host_id,
                    kind=message.kind,
                    parent=message.trace_id,
                    reason="mh_left_cell",
                )
            if on_lost is not None:
                on_lost(message)
            return
        mh.note_downlink_delivery(message.wireless_seq)
        mh.handle_message(message)
        if on_delivered is not None:
            on_delivered(message)

    def send_wireless_up(self, mh_id: str, message: Message) -> None:
        """Transmit ``message`` from a MH to its current local MSS.

        The MH must be connected (the system model forbids sending after
        ``leave``/``disconnect``).  Uplink delivery always succeeds: the
        MSS is static.
        """
        mh = self.mobile_host(mh_id)
        if not mh.is_connected:
            raise NotConnectedError(
                f"{mh_id} cannot transmit while {mh.state.value}"
            )
        mss = self.mss(mh.current_mss_id)
        message.dst = mss.host_id
        self.metrics.record_wireless_tx(mh_id, message.scope)
        if self._trace_on:
            message.trace_id = self._batch_wireless_up(
                message.scope, mh_id, mss.host_id, message.kind,
            )
        latency = self._wireless_const
        if latency is None:
            latency = self.config.wireless_latency(self.rng)
        scheduler = self.scheduler
        key = (mh_id, mss.host_id)
        arrival = scheduler.now + latency
        last = self._last_arrival
        previous = last.get(key)
        if previous is not None and previous > arrival:
            arrival = previous
        last[key] = arrival
        scheduler.post_at(arrival, mss.handle_message, message)

    # ------------------------------------------------------------------
    # Reliable MH delivery: locate, forward, retry across moves
    # ------------------------------------------------------------------

    def send_to_mh(
        self,
        src_mss_id: str,
        mh_id: str,
        message: Message,
        on_delivered: Optional[DeliveredCallback] = None,
        on_disconnected: Optional[DisconnectedCallback] = None,
        _attempts: int = 1,
    ) -> None:
        """Deliver ``message`` to ``mh_id``, wherever it currently is.

        Implements the model's eventual-delivery guarantee: if the MH is
        local, one wireless hop suffices; otherwise a search locates its
        current MSS and the message takes the final wireless hop from
        there.  If the MH moves while the message is in flight, delivery
        is retried with a fresh search.  If the MH has disconnected,
        ``on_disconnected`` fires at the source with the outcome (the
        notification from the disconnect-cell MSS), matching Section 2.

        The retry loop is bounded by
        ``config.mh_delivery_max_attempts``: past the cap, delivery is
        abandoned and ``on_disconnected`` fires with ``gave_up=True``.
        """
        cap = self.config.mh_delivery_max_attempts
        if cap is not None and _attempts > cap:
            self.fault(
                "send_to_mh.gave_up", scope=message.scope, src=src_mss_id,
                dst=mh_id, kind=message.kind, attempts=_attempts - 1,
            )
            if on_disconnected is not None:
                on_disconnected(
                    SearchOutcome(
                        mh_id=mh_id,
                        mss_id=src_mss_id,
                        disconnected=True,
                        probes=0,
                        gave_up=True,
                    )
                )
            return
        population = self.population
        if population is not None and population.owns(mh_id):
            # Promote before the local-membership check below: a
            # passive MH that is in fact local must take the one-hop
            # wireless path, not pay a spurious search (this keeps
            # store-on and store-off runs byte-identical).
            population.promote(mh_id)
        src = self.mss(src_mss_id)
        if mh_id in src.local_mhs:
            self.send_wireless_down(
                src_mss_id,
                mh_id,
                message,
                on_lost=partial(self._redeliver, src_mss_id, mh_id,
                                on_delivered, on_disconnected,
                                _attempts + 1),
                on_delivered=on_delivered,
            )
            return
        landed = partial(self._search_landed, mh_id, on_delivered,
                         on_disconnected, _attempts, message)
        if self._trace_on:
            begin_id = self._trace.emit(
                "search.begin",
                scope=message.scope,
                src=src_mss_id,
                dst=mh_id,
                kind=message.kind,
                attempt=_attempts,
            )
            with self._trace.context(begin_id):
                self.search_protocol.search(
                    self, src_mss_id, mh_id, message.scope,
                    partial(self._trace_search_result, begin_id,
                            src_mss_id, message.scope, landed),
                )
        else:
            self.search_protocol.search(
                self, src_mss_id, mh_id, message.scope, landed
            )

    def _redeliver(self, src_mss_id: str, mh_id: str,
                   on_delivered: Optional[DeliveredCallback],
                   on_disconnected: Optional[DisconnectedCallback],
                   attempts: int, message: Message) -> None:
        """A wireless hop lost ``message``: deliver it again."""
        self.send_to_mh(src_mss_id, mh_id, message, on_delivered,
                        on_disconnected, attempts)

    def _search_landed(self, mh_id: str,
                       on_delivered: Optional[DeliveredCallback],
                       on_disconnected: Optional[DisconnectedCallback],
                       attempts: int, message: Message,
                       outcome: SearchOutcome) -> None:
        """Forward ``message`` to where the search located ``mh_id``."""
        if outcome.disconnected:
            # The MSS of the cell where the MH disconnected notifies the
            # source of the disconnected status (Section 2).
            self.search_protocol.charge_disconnect_reply(self, message.scope)
            if on_disconnected is not None:
                on_disconnected(outcome)
            return
        self.search_protocol.charge_forward(self, message.scope)
        dst_mss_id = outcome.mss_id
        if mh_id not in self.mss(dst_mss_id).local_mhs:
            # The MH moved between search resolution and forward;
            # retry from the located MSS with a fresh search.
            self.scheduler.post(
                self.config.search_retry_delay,
                self.send_to_mh,
                dst_mss_id,
                mh_id,
                message,
                on_delivered,
                on_disconnected,
                attempts + 1,
            )
            return
        self.send_wireless_down(
            dst_mss_id,
            mh_id,
            message,
            on_lost=partial(self._redeliver, dst_mss_id, mh_id,
                            on_delivered, on_disconnected, attempts + 1),
            on_delivered=on_delivered,
        )

    def _trace_search_result(self, begin_id: int, src_mss_id: str,
                             scope: str, landed: OutcomeCallback,
                             outcome: SearchOutcome) -> None:
        """Trace ``search.result``, then act on it in its context."""
        result_id = self._trace.emit(
            "search.result",
            scope=scope,
            src=src_mss_id,
            dst=outcome.mh_id,
            parent=begin_id,
            located=outcome.mss_id,
            disconnected=outcome.disconnected,
            probes=outcome.probes,
        )
        with self._trace.context(result_id):
            landed(outcome)
