"""Network substrates (S3-S5): fixed network, wireless cells, search.

The network implements exactly the properties postulated by Section 2 of
the paper:

* the static network provides reliable, sequenced (FIFO) delivery
  between any two MSSs with arbitrary latency;
* each wireless cell provides FIFO channels between the MSS and each
  local MH; a MH that leaves receives a *prefix* of the messages sent to
  it, and reports the sequence number of the last received message in
  its ``leave(r)``;
* a message destined for a MH is eventually delivered after incurring a
  search, regardless of how many moves the MH makes
  (:meth:`Network.send_to_mh` re-searches on loss);
* searching for a disconnected MH yields a notification from the MSS of
  the cell where the MH disconnected.
"""

from repro.net.cache_search import CachingSearch
from repro.net.config import NetworkConfig
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.regional_search import RegionalSearch
from repro.net.reliable import ReliableTransport
from repro.net.search import (
    AbstractSearch,
    BroadcastSearch,
    HomeAgentSearch,
    SearchOutcome,
    SearchProtocol,
)

__all__ = [
    "AbstractSearch",
    "BroadcastSearch",
    "CachingSearch",
    "ConstantLatency",
    "HomeAgentSearch",
    "Message",
    "Network",
    "NetworkConfig",
    "RegionalSearch",
    "ReliableTransport",
    "SearchOutcome",
    "SearchProtocol",
    "UniformLatency",
]
