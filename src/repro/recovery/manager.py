"""The recovery manager: saves, trail-walking fetches, restores.

Message kinds and their pricing under the standard cost model:

========================  =========================  ====================
kind                      path                       scope
========================  =========================  ====================
``recovery.save``         MH -> local MSS            ``recovery.ckpt``
                          (1 wireless uplink)
``recovery.discard``      new home -> old home       ``recovery.ckpt``
                          (1 fixed)
``recovery.fetch``        trail walk, one fixed      ``recovery.restore``
                          hop per trail entry
``recovery.payload``      home -> requester          ``recovery.restore``
                          (1 fixed)
``recovery.restore``      MSS -> recovered MH        ``recovery.restore``
                          (1 wireless downlink)
========================  =========================  ====================

The two scopes split the ledger the way the trade-off is argued:
``recovery.ckpt`` is the *overhead* a policy pays while everything is
healthy; ``recovery.restore`` is the *recovery cost* paid after a
crash.  ``MetricsSnapshot.cost(model, scope)`` prices each side.

The meta's migration costs nothing here: it rides the Section 2
handoff the mobility layer already pays for -- which is precisely why
distance-based checkpointing is cheap on this architecture.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.net.messages import Message
from repro.recovery.checkpoint import Checkpoint, CheckpointMeta, CheckpointStore
from repro.recovery.policy import CheckpointPolicy, NoCheckpointPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.recovery.clients import RecoveryClient

CKPT_SCOPE = "recovery.ckpt"
RESTORE_SCOPE = "recovery.restore"


class SavePayload(NamedTuple):
    """Uplinked by the MH: a fresh checkpoint to home at its cell."""

    mh_id: str
    seq: int
    state: Dict[str, object]


class FetchPayload(NamedTuple):
    """Walks the trail toward the home holding the payload."""

    mh_id: str
    remaining: Tuple[str, ...]
    requester_mss_id: str


class PayloadReturn(NamedTuple):
    """The checkpoint coming back from its home (``None`` = lost)."""

    mh_id: str
    checkpoint: Optional[Checkpoint]


class DiscardPayload(NamedTuple):
    """Tells an old home its copy is superseded."""

    mh_id: str
    seq: int


class RecoveryManager:
    """Checkpointing and crash recovery over a set of mobile hosts.

    Args:
        network: the simulated system (faults must be installed for
            crash-driven restores to fire; checkpointing alone works
            without them).
        policy: when to checkpoint (default: never).
        mh_ids: the hosts covered (default: every registered MH).
        scope_prefix: namespace for the manager's message kinds.
    """

    def __init__(
        self,
        network: "Network",
        policy: Optional[CheckpointPolicy] = None,
        mh_ids: Optional[List[str]] = None,
        scope_prefix: str = "recovery",
    ) -> None:
        self.network = network
        self.policy = policy if policy is not None else NoCheckpointPolicy()
        self.mh_ids = list(mh_ids) if mh_ids is not None else network.mh_ids()
        if not self.mh_ids:
            raise ConfigurationError("recovery manager needs at least one MH")
        self.kind_save = f"{scope_prefix}.save"
        self.kind_fetch = f"{scope_prefix}.fetch"
        self.kind_payload = f"{scope_prefix}.payload"
        self.kind_discard = f"{scope_prefix}.discard"
        self.kind_restore = f"{scope_prefix}.restore"
        self.kind_meta = f"{scope_prefix}.meta"
        self._clients: List["RecoveryClient"] = []
        self._seq: Dict[str, int] = {}
        self._has_checkpoint: Set[str] = set()
        self._awaiting: Set[str] = set()
        self.checkpoints_taken = 0
        #: (time, mh_id, seq) of completed restores; seq -1 = restarted
        #: from nothing (no checkpoint existed or it was lost).
        self.restored: List[Tuple[float, str, int]] = []
        self._stores: Dict[str, CheckpointStore] = {}
        for mss_id in network.mss_ids():
            mss = network.mss(mss_id)
            store = CheckpointStore(self, mss_id)
            self._stores[mss_id] = store
            mss.add_handoff_participant(store)
            mss.register_handler(self.kind_save, self._on_save)
            mss.register_handler(self.kind_fetch, self._on_fetch)
            mss.register_handler(self.kind_payload, self._on_payload)
            mss.register_handler(self.kind_discard, self._on_discard)
            mss.register_handler(self.kind_meta, self._on_meta)
        for mh_id in self.mh_ids:
            network.mobile_host(mh_id).register_handler(
                self.kind_restore, self._on_restore
            )
        if network.faults is not None:
            network.faults.add_mh_crash_listener(self._on_mh_crash)
            network.faults.add_mh_recovery_listener(self._on_mh_recover)
        self.policy.bind(self)

    # ------------------------------------------------------------------
    # Client registration and progress
    # ------------------------------------------------------------------

    def add_client(self, client: "RecoveryClient") -> None:
        """Register a protocol's share of the recoverable state."""
        if any(c.name == client.name for c in self._clients):
            raise ConfigurationError(
                f"recovery client {client.name!r} already registered"
            )
        self._clients.append(client)

    def note_progress(self, mh_id: str) -> None:
        """A client made one unit of recoverable progress at ``mh_id``."""
        self.policy.on_progress(self, mh_id)

    def seq_of(self, mh_id: str) -> int:
        """Sequence number of the latest checkpoint taken (0 = none)."""
        return self._seq.get(mh_id, 0)

    def store(self, mss_id: str) -> CheckpointStore:
        """The checkpoint store at ``mss_id`` (for tests)."""
        return self._stores[mss_id]

    # ------------------------------------------------------------------
    # Taking checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, mh_id: str) -> bool:
        """Capture client state at ``mh_id`` and uplink it to the local
        MSS.  Returns False (no-op) while the host cannot transmit."""
        mh = self.network.mobile_host(mh_id)
        if mh.crashed or not mh.is_connected:
            return False
        seq = self._seq.get(mh_id, 0) + 1
        self._seq[mh_id] = seq
        state = {c.name: c.capture(mh_id) for c in self._clients}
        self.checkpoints_taken += 1
        if self.network._trace_on:
            self.network._trace.emit(
                "recovery.checkpoint",
                scope=CKPT_SCOPE,
                src=mh_id,
                dst=mh.current_mss_id,
                seq=seq,
            )
        mh.send_to_mss(
            self.kind_save, SavePayload(mh_id, seq, state), CKPT_SCOPE
        )
        return True

    def _on_save(self, message: Message) -> None:
        payload: SavePayload = message.payload
        mss_id = message.dst
        store = self._stores[mss_id]
        old_meta = store.meta(payload.mh_id)
        if (
            old_meta is not None
            and old_meta.home_mss_id != mss_id
            and not self.network.is_mss_crashed(old_meta.home_mss_id)
        ):
            # The superseded payload sits at another station: one fixed
            # message reclaims its stable storage.
            self.network.mss(mss_id).send_fixed(
                old_meta.home_mss_id,
                self.kind_discard,
                DiscardPayload(payload.mh_id, old_meta.seq),
                CKPT_SCOPE,
            )
        store.install_checkpoint(
            Checkpoint(
                mh_id=payload.mh_id,
                seq=payload.seq,
                taken_at=self.network.scheduler.now,
                state=payload.state,
            )
        )
        self._has_checkpoint.add(payload.mh_id)

    def _on_discard(self, message: Message) -> None:
        payload: DiscardPayload = message.payload
        store = self._stores[message.dst]
        current = store.payload(payload.mh_id)
        if current is not None and current.seq <= payload.seq:
            store.drop_payload(payload.mh_id)

    # ------------------------------------------------------------------
    # Meta migration hook (called by the stores)
    # ------------------------------------------------------------------

    def _meta_arrived(
        self, store: CheckpointStore, mh_id: str, meta: CheckpointMeta
    ) -> None:
        mh = self.network.mobile_host(mh_id)
        if mh_id in self._awaiting and mh.current_mss_id == store.mss_id:
            # The recovered host reattached here and its pointer just
            # caught up: walk the trail.
            self._start_fetch(mh_id, store)
            return
        if (
            not mh.crashed
            and mh.is_connected
            and mh.current_mss_id is not None
            and mh.current_mss_id != store.mss_id
        ):
            # A crash raced the handoff: the meta landed at a station
            # the host has since abandoned (e.g. it was orphaned and
            # rejoined elsewhere while the reply retransmitted).  Left
            # shelved here, no future handoff would ever pop it -- so
            # chase the host, one fixed hop per arrival.
            self._forward_meta(store, mh_id)
            return
        if mh_id not in self._awaiting:
            self.policy.on_moved(self, mh_id, len(meta.trail))

    def _forward_meta(self, store: CheckpointStore, mh_id: str) -> None:
        """Ship the meta from ``store`` to the host's current cell."""
        target = self.network.mobile_host(mh_id).current_mss_id
        meta = store.handoff_state(mh_id)  # pops + grows the trail
        if meta is None:  # pragma: no cover - defensive
            return
        if self.network._trace_on:
            self.network._trace.emit(
                "recovery.meta_forward",
                scope=CKPT_SCOPE,
                src=store.mss_id,
                dst=target,
                mh_id=mh_id,
                seq=meta.seq,
            )
        self.network.metrics.record_fault("recovery.meta_forwarded")
        self.network.mss(store.mss_id).send_fixed(
            target, self.kind_meta, meta, CKPT_SCOPE
        )

    def _on_meta(self, message: Message) -> None:
        meta: CheckpointMeta = message.payload
        store = self._stores[message.dst]
        current = store.meta(meta.mh_id)
        if current is not None and current.seq >= meta.seq:
            return  # a fresher checkpoint already landed here
        store.install_handoff_state(meta.mh_id, meta)

    # ------------------------------------------------------------------
    # Crash / recovery listeners
    # ------------------------------------------------------------------

    def _on_mh_crash(self, mh_id: str) -> None:
        if mh_id not in self.mh_ids:
            return
        # Restart any interrupted restore from scratch at next recovery.
        self._awaiting.discard(mh_id)
        for client in self._clients:
            client.on_crash(mh_id)

    def _on_mh_recover(self, mh_id: str) -> None:
        if mh_id not in self.mh_ids:
            return
        mh = self.network.mobile_host(mh_id)
        if mh_id not in self._has_checkpoint:
            self._restart_from_nothing(mh_id, reason="no_checkpoint")
            return
        self._awaiting.add(mh_id)
        # Recovered into the very cell that shelves the meta (the
        # reconnect involves no handoff, so _meta_arrived never fires):
        # fetch from the local shelf -- but only once the host has
        # actually reattached, otherwise the restore downlink would pay
        # a needless search for a host mid-reconnect.
        self._await_local(mh_id)

    def _await_local(self, mh_id: str) -> None:
        if mh_id not in self._awaiting:
            return  # the handoff path delivered the meta first
        mh = self.network.mobile_host(mh_id)
        if mh.crashed:
            return  # died again; the next recovery restarts the wait
        mss_id = mh.current_mss_id
        if (
            not mh.is_connected
            or mss_id is None
            # The host flips to connected as soon as it transmits the
            # reconnect greeting; the cell only lists it once the
            # accept round-trip lands.  Wait for the cell's view, so
            # the restore downlink is a plain local delivery and not a
            # needless search for a half-attached host.
            or not self.network.mss(mss_id).is_local(mh_id)
        ):
            self.network.scheduler.schedule(
                self.network.config.search_retry_delay,
                self._await_local,
                mh_id,
            )
            return
        store = self._stores[mss_id]
        if store.meta(mh_id) is not None:
            self._start_fetch(mh_id, store)
            return
        # No meta on the local shelf: a crash raced a handoff somewhere.
        # The manager's directory view finds the shelf still holding it
        # (control-plane knowledge; the data transfer below is a real
        # fixed message).  Pick the freshest if several stale shelves
        # survive.
        holders = [
            s for s in self._stores.values()
            if s is not store and s.meta(mh_id) is not None
        ]
        if not holders:
            # The meta is still in flight on a reliable channel; its
            # arrival fires _meta_arrived, which resumes this restore.
            return
        holder = max(holders, key=lambda s: s.meta(mh_id).seq)
        if self.network.is_mss_crashed(holder.mss_id):
            # Same semantics as a crashed home in _start_fetch: the
            # pointer is unreachable, restart from nothing rather than
            # wait on a station that may never return.
            self._awaiting.discard(mh_id)
            self._restart_from_nothing(mh_id, reason="checkpoint_lost")
            return
        self._forward_meta(holder, mh_id)

    def _restart_from_nothing(self, mh_id: str, reason: str) -> None:
        self.network.metrics.record_fault(f"recovery.{reason}")
        if self.network._trace_on:
            self.network._trace.emit(
                "recovery.restored",
                scope=RESTORE_SCOPE,
                src=mh_id,
                seq=-1,
                reason=reason,
            )
        for client in self._clients:
            client.restore(mh_id, None)
        self.restored.append((self.network.scheduler.now, mh_id, -1))

    # ------------------------------------------------------------------
    # The fetch walk
    # ------------------------------------------------------------------

    def _start_fetch(self, mh_id: str, store: CheckpointStore) -> None:
        self._awaiting.discard(mh_id)
        meta = store.meta(mh_id)
        if self.network._trace_on:
            self.network._trace.emit(
                "recovery.fetch",
                scope=RESTORE_SCOPE,
                src=store.mss_id,
                home=meta.home_mss_id,
                mh_id=mh_id,
                distance=len(meta.trail),
            )
        if meta.home_mss_id == store.mss_id:
            # Payload is already local (the host never left, or the
            # checkpoint was re-homed here by an earlier recovery).
            self._complete_restore(store.mss_id, store.payload(mh_id))
            return
        if self.network.is_mss_crashed(meta.home_mss_id):
            self._restart_from_nothing(mh_id, reason="checkpoint_lost")
            return
        # Walk the trail; stations currently dark are skipped (their
        # neighbours forward around them), the home itself is alive.
        trail = [m for m in meta.trail if not self.network.is_mss_crashed(m)]
        if not trail:
            trail = [meta.home_mss_id]
        self.network.mss(store.mss_id).send_fixed(
            trail[0],
            self.kind_fetch,
            FetchPayload(mh_id, tuple(trail[1:]), store.mss_id),
            RESTORE_SCOPE,
        )

    def _on_fetch(self, message: Message) -> None:
        payload: FetchPayload = message.payload
        mss_id = message.dst
        remaining = [
            m for m in payload.remaining
            if not self.network.is_mss_crashed(m)
        ]
        if remaining:
            self.network.mss(mss_id).send_fixed(
                remaining[0],
                self.kind_fetch,
                FetchPayload(
                    payload.mh_id, tuple(remaining[1:]),
                    payload.requester_mss_id,
                ),
                RESTORE_SCOPE,
            )
            return
        # End of the trail: this station is the home; return the payload
        # directly to the requester (one fixed hop) and hand over the
        # home role.
        store = self._stores[mss_id]
        checkpoint = store.payload(payload.mh_id)
        store.drop_payload(payload.mh_id)
        self.network.mss(mss_id).send_fixed(
            payload.requester_mss_id,
            self.kind_payload,
            PayloadReturn(payload.mh_id, checkpoint),
            RESTORE_SCOPE,
        )

    def _on_payload(self, message: Message) -> None:
        payload: PayloadReturn = message.payload
        if payload.checkpoint is None:
            self._restart_from_nothing(
                payload.mh_id, reason="checkpoint_lost"
            )
            return
        # Re-home the checkpoint where the host now lives, so the next
        # crash (before any move) recovers with a purely local fetch.
        self._stores[message.dst].install_checkpoint(payload.checkpoint)
        self._complete_restore(message.dst, payload.checkpoint)

    def _complete_restore(
        self, mss_id: str, checkpoint: Optional[Checkpoint]
    ) -> None:
        if checkpoint is None:  # pragma: no cover - defensive
            return
        mh_id = checkpoint.mh_id
        mh = self.network.mobile_host(mh_id)
        if mh.crashed:
            return  # died again mid-restore; the next recovery retries
        mss = self.network.mss(mss_id)
        if mss.is_local(mh_id):
            mss.send_to_local_mh(
                mh_id, self.kind_restore, checkpoint, RESTORE_SCOPE
            )
        else:
            # The host wandered off while the fetch was in flight.
            mss.send_to_mh(
                mh_id, self.kind_restore, checkpoint, RESTORE_SCOPE
            )

    def _on_restore(self, message: Message) -> None:
        checkpoint: Checkpoint = message.payload
        mh_id = checkpoint.mh_id
        self.network.metrics.record_fault("recovery.restored")
        if self.network._trace_on:
            self.network._trace.emit(
                "recovery.restored",
                scope=RESTORE_SCOPE,
                src=mh_id,
                seq=checkpoint.seq,
            )
        for client in self._clients:
            client.restore(mh_id, checkpoint.state.get(client.name))
        self.restored.append(
            (self.network.scheduler.now, mh_id, checkpoint.seq)
        )
