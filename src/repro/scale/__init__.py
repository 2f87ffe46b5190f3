"""``repro.scale`` -- the million-MH scale-out substrate.

ROADMAP item 2: struct-of-arrays host state for the passive crowd
(:class:`PopulationStore`), memory-bounded streaming statistics
(:class:`Welford`, :class:`FixedHistogram`), and the periodic
:class:`CrowdChurn` driver.  Enabled through
``Simulation(population_store=True)``; see ``docs/scaling.md`` for the
architecture and the N=1M recipe.
"""

from repro.scale.churn import CrowdChurn
from repro.scale.store import CROWD_ID, PopulationStore
from repro.scale.stream import FixedHistogram, Welford

__all__ = [
    "CROWD_ID",
    "CrowdChurn",
    "FixedHistogram",
    "PopulationStore",
    "Welford",
]
