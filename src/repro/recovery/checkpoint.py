"""Checkpoint payloads, migration metadata, and the per-MSS store.

The division of labour is the heart of the distance-based scheme:

* the :class:`Checkpoint` (the MH's full recoverable state) is written
  once to the *stable store* of the MSS serving the cell where it was
  taken -- its **home** -- and never moves on its own;
* the :class:`CheckpointMeta` is a few words -- home pointer, sequence
  number, and the *trail* of stations visited since the checkpoint --
  and migrates with the MH through the ordinary Section 2 handoff, as
  one more :class:`~repro.hosts.mss.HandoffParticipant` share.

Moving therefore costs O(1) extra handoff bytes, while recovering costs
one fixed-network hop per trail entry (the fetch walks the trail back
to the home) plus the payload's return -- i.e. proportional to the
distance moved since the checkpoint, never to the length of the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from repro.hosts.mss import HandoffParticipant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery.manager import RecoveryManager


class Checkpoint(NamedTuple):
    """A MH's full recoverable state, resident at its home MSS.

    ``state`` maps each registered recovery client's name to whatever
    that client captured; the manager hands each share back to its
    client at restore time.
    """

    mh_id: str
    seq: int
    taken_at: float
    state: Dict[str, object]


class CheckpointMeta(NamedTuple):
    """The migrating pointer to a MH's latest checkpoint.

    ``trail`` lists the MSSs visited since the checkpoint, most recent
    first; its last entry is the home itself, so a recovery fetch
    simply walks the trail.  A fresh checkpoint resets the trail to
    ``()``.
    """

    mh_id: str
    seq: int
    home_mss_id: str
    trail: Tuple[str, ...] = ()


class CheckpointStore(HandoffParticipant):
    """One MSS's stable checkpoint storage and meta shelf.

    Stable storage survives the station's own crash windows (the usual
    stable-store assumption of the checkpointing literature); only the
    *volatile* cell-management sets are lost when a MSS goes down.
    """

    name = "recovery.ckpt"

    def __init__(self, manager: "RecoveryManager", mss_id: str) -> None:
        self._manager = manager
        self.mss_id = mss_id
        #: checkpoints homed at this station, by MH.
        self._payloads: Dict[str, Checkpoint] = {}
        #: metas of MHs currently residing in this cell, by MH.
        self._meta: Dict[str, CheckpointMeta] = {}

    # ------------------------------------------------------------------
    # Local accessors (used by the manager)
    # ------------------------------------------------------------------

    def meta(self, mh_id: str) -> Optional[CheckpointMeta]:
        return self._meta.get(mh_id)

    def payload(self, mh_id: str) -> Optional[Checkpoint]:
        return self._payloads.get(mh_id)

    def install_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Home a fresh checkpoint here and reset its meta trail."""
        self._payloads[checkpoint.mh_id] = checkpoint
        self._meta[checkpoint.mh_id] = CheckpointMeta(
            mh_id=checkpoint.mh_id,
            seq=checkpoint.seq,
            home_mss_id=self.mss_id,
            trail=(),
        )

    def drop_payload(self, mh_id: str) -> None:
        self._payloads.pop(mh_id, None)

    # ------------------------------------------------------------------
    # HandoffParticipant protocol
    # ------------------------------------------------------------------

    def handoff_state(self, mh_id: str) -> Optional[CheckpointMeta]:
        meta = self._meta.pop(mh_id, None)
        if meta is None:
            return None
        # The payload stays home; the migrating meta grows its trail by
        # this station, keeping a walkable path back to the payload.
        return CheckpointMeta(
            mh_id=meta.mh_id,
            seq=meta.seq,
            home_mss_id=meta.home_mss_id,
            trail=(self.mss_id,) + meta.trail,
        )

    def install_handoff_state(self, mh_id: str, state: object) -> None:
        meta: CheckpointMeta = state
        self._meta[mh_id] = meta
        self._manager._meta_arrived(self, mh_id, meta)
