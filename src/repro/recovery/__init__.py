"""Checkpointing and crash recovery for mobile hosts (``repro.recovery``).

The paper's fault model stops at *disconnections*: a MH that detaches
politely announces ``disconnect(r)`` and its per-MH state waits at the
old MSS until the handoff pulls it.  A *crash* is harsher -- the host's
volatile state is gone and the radio simply goes silent -- yet the
recovery literature for this exact architecture (Khatri et al.'s
distance-based checkpointing for mobile hosts) shows the same two-tier
structuring argument applies: keep the checkpoint at a support station,
migrate only a tiny pointer on each handoff, and bound the recovery
cost by the *distance moved since the last checkpoint* instead of the
length of the run.

This package implements that subsystem:

* :class:`~repro.recovery.checkpoint.CheckpointStore` -- a per-MSS
  stable store, registered as an ordinary
  :class:`~repro.hosts.mss.HandoffParticipant`: the checkpoint payload
  stays where it was taken; only :class:`CheckpointMeta` (home pointer
  plus the trail of cells visited since) rides the existing handoff.
* :class:`~repro.recovery.manager.RecoveryManager` -- orchestrates
  saves (one wireless uplink, scope ``recovery.ckpt``), the
  trail-walking fetch at recovery time (scope ``recovery.restore``),
  and the final wireless restore to the recovered host.
* pluggable :mod:`~repro.recovery.policy` -- per-message, periodic,
  and Khatri distance-based checkpointing, so experiments can compare
  overhead against recovery cost under the standard cost model
  (``repro compare --experiment recovery``).
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointMeta,
    CheckpointStore,
)
from repro.recovery.clients import (
    CounterClient,
    MutexCheckpointClient,
    RecoveryClient,
)
from repro.recovery.manager import RecoveryManager
from repro.recovery.policy import (
    CheckpointPolicy,
    DistancePolicy,
    NoCheckpointPolicy,
    PerMessagePolicy,
    PeriodicPolicy,
    policy_from_spec,
)

__all__ = [
    "Checkpoint",
    "CheckpointMeta",
    "CheckpointPolicy",
    "CheckpointStore",
    "CounterClient",
    "DistancePolicy",
    "MutexCheckpointClient",
    "NoCheckpointPolicy",
    "PerMessagePolicy",
    "PeriodicPolicy",
    "RecoveryClient",
    "RecoveryManager",
    "policy_from_spec",
]
