"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything coming out of the simulator with one clause
while still distinguishing configuration mistakes from invariant
violations detected at run time.
The hierarchy spans every layer of the paper reproduction (Sections 2-5).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The simulation entered a state that violates the system model."""


class UnknownHostError(SimulationError):
    """A message or operation referenced a host id that does not exist."""


class NotConnectedError(SimulationError):
    """An operation required a connected mobile host but it was not."""


class MutualExclusionViolation(SimulationError):
    """Two processes were observed inside the critical region at once."""


class FairnessViolation(SimulationError):
    """An ordering guarantee of a mutual exclusion algorithm was broken."""


class ProtocolError(SimulationError):
    """A protocol message arrived that the receiving state cannot accept."""


class InvariantViolationError(SimulationError):
    """An online invariant monitor observed at least one violation."""
