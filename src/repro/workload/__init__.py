"""Workload generators (S21).

Drivers that exercise the algorithms over time:

* :class:`MutexWorkload` -- per-MH Poisson request arrivals against any
  mutual exclusion object exposing ``request(mh_id)``; tracks issued
  and completed requests and never leaves more than one request per MH
  outstanding.
* :class:`GroupMessagingWorkload` -- Poisson group-message traffic from
  random members; combined with a mobility model it dials in the
  paper's mobility-to-message ratio MOB/MSG.
* :class:`MulticastWorkload` -- Poisson exactly-once multicasts from
  random members (the paper's reference [1]).
* :class:`LetterWorkload` -- Poisson MH-to-MH letters through the
  proxy framework (Section 5).

The message drivers take two generators: one draws who sends, the
other times the arrivals.
"""

from repro.workload.generators import (
    GroupMessagingWorkload, LetterWorkload, MulticastWorkload, MutexWorkload,
)

__all__ = ["GroupMessagingWorkload", "LetterWorkload", "MulticastWorkload",
           "MutexWorkload"]
