"""Timing configuration for the simulated network.

Parameterizes the fixed and wireless channels of the paper's Section 2 model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional
import random

from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency

LatencyModel = Callable[[random.Random], float]


@dataclass
class NetworkConfig:
    """Timing knobs of the simulated system.

    Attributes:
        fixed_latency: latency model for MSS <-> MSS channels.
        wireless_latency: latency model for MSS <-> MH hops.
        transit_time: wall time a MH spends between leaving one cell and
            joining the next (the paper only requires that it eventually
            joins *some* cell).
        search_delay: time an abstract search takes to complete.
        search_retry_delay: how long a search waits before re-examining a
            MH that is currently in transit.
        mh_delivery_max_attempts: delivery attempts (searches plus
            wireless hops) :meth:`Network.send_to_mh` makes before giving
            up and reporting the outcome through ``on_disconnected`` with
            ``gave_up=True``.  ``None`` restores the paper's unbounded
            eventual-delivery retry loop.
    """

    fixed_latency: LatencyModel = field(
        default_factory=partial(ConstantLatency, 1.0)
    )
    wireless_latency: LatencyModel = field(
        default_factory=partial(ConstantLatency, 0.5)
    )
    transit_time: float = 2.0
    search_delay: float = 1.0
    search_retry_delay: float = 1.0
    mh_delivery_max_attempts: Optional[int] = 25

    def __post_init__(self) -> None:
        if (
            self.mh_delivery_max_attempts is not None
            and self.mh_delivery_max_attempts < 1
        ):
            raise ConfigurationError(
                "mh_delivery_max_attempts must be >= 1 (or None)"
            )
        if self.transit_time < 0:
            raise ConfigurationError("transit_time must be nonnegative")
        if self.search_delay < 0:
            raise ConfigurationError("search_delay must be nonnegative")
        if self.search_retry_delay <= 0:
            raise ConfigurationError("search_retry_delay must be positive")
