"""Timing configuration for the simulated network.

Parameterizes the fixed and wireless channels of the paper's Section 2 model.
"""

from __future__ import annotations

from typing import Callable, Optional
import random

from repro.errors import ConfigurationError, require_number
from repro.net.latency import ConstantLatency

LatencyModel = Callable[[random.Random], float]


class NetworkConfig:
    """Timing knobs of the simulated system.

    Attributes:
        fixed_latency: latency model for MSS <-> MSS channels.
        wireless_latency: latency model for MSS <-> MH hops.
        transit_time: simulated time a MH spends between leaving one
            cell and joining the next (the paper only requires that it
            eventually joins *some* cell).
        search_delay: time an abstract search takes to complete.
        search_retry_delay: how long a search waits before re-examining a
            MH that is currently in transit.
        mh_delivery_max_attempts: delivery attempts (searches plus
            wireless hops) :meth:`Network.send_to_mh` makes before giving
            up and reporting the outcome through ``on_disconnected`` with
            ``gave_up=True``.  ``None`` restores the paper's unbounded
            eventual-delivery retry loop.

    Each number must be finite; a bad one raises
    :class:`~repro.errors.ConfigurationError` naming its field.
    """

    __slots__ = ("fixed_latency", "wireless_latency", "transit_time",
                 "search_delay", "search_retry_delay",
                 "mh_delivery_max_attempts")

    def __init__(
        self,
        fixed_latency: Optional[LatencyModel] = None,
        wireless_latency: Optional[LatencyModel] = None,
        transit_time: float = 2.0,
        search_delay: float = 1.0,
        search_retry_delay: float = 1.0,
        mh_delivery_max_attempts: Optional[int] = 25,
    ) -> None:
        require_number("NetworkConfig.transit_time", transit_time)
        require_number("NetworkConfig.search_delay", search_delay)
        require_number("NetworkConfig.search_retry_delay",
                       search_retry_delay)
        require_number("NetworkConfig.mh_delivery_max_attempts",
                       mh_delivery_max_attempts, allow_none=True)
        if (mh_delivery_max_attempts is not None
                and mh_delivery_max_attempts < 1):
            raise ConfigurationError(
                "mh_delivery_max_attempts must be >= 1 (or None)"
            )
        if transit_time < 0:
            raise ConfigurationError("transit_time must be nonnegative")
        if search_delay < 0:
            raise ConfigurationError("search_delay must be nonnegative")
        if search_retry_delay <= 0:
            raise ConfigurationError("search_retry_delay must be positive")
        self.fixed_latency = fixed_latency or ConstantLatency(1.0)
        self.wireless_latency = wireless_latency or ConstantLatency(0.5)
        self.transit_time = transit_time
        self.search_delay = search_delay
        self.search_retry_delay = search_retry_delay
        self.mh_delivery_max_attempts = mh_delivery_max_attempts
