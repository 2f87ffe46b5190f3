"""The proxy framework (Section 5; S19).

The paper's final contribution: decouple host mobility from algorithm
design by associating each MH with a *proxy* MSS.  A proxy association
is characterized by two parameters:

* **scope** -- which MHs associate with which proxy.
  :class:`LocalProxyPolicy` binds each MH to its current local MSS (the
  association of L2 and R2); :class:`FixedProxyPolicy` binds each MH to
  one MSS for its lifetime (total separation of mobility from the
  algorithm -- at the price of informing the proxy of every move).
* **obligations** -- what the proxy does when its MH moves away in the
  middle of a computation the MH initiated there (e.g. L2's proxy is
  obligated to search for the MH when its grant comes up).

Two demonstrations are built on the framework:

* :class:`ProxiedMessenger` -- point-to-point MH-to-MH messaging routed
  through proxies.  With fixed proxies, messages never search (the
  destination's proxy always knows its location) but every move costs
  inform traffic; with local proxies, moves are free but every message
  pays a search.  This reproduces the search/inform trade-off of
  Section 4 at the proxy level (benchmark E11).
* :class:`ProxiedMutex` -- Lamport's *static-host* mutual exclusion run
  unchanged at the proxies of the participating MHs: algorithm L2 with
  the proxy scope plugged in, showing that a distributed algorithm for
  static hosts extends to mobile participants purely by choosing a
  proxy policy.  Its proxies keep L2's obligations under every policy:
  an unreachable grantee's request is aborted, a MH that leaves the
  region detached owes its release until it reattaches, a MH crash
  inside the region vacates it, and MSS crash plans are refused.
"""

from repro.proxy.adaptive import AdaptiveProxyPolicy
from repro.proxy.policy import (
    FixedProxyPolicy,
    LocalProxyPolicy,
    ProxyPolicy,
)
from repro.proxy.manager import ProxyManager
from repro.proxy.messenger import ProxiedMessenger
from repro.proxy.mutex import ProxiedMutex

__all__ = [
    "AdaptiveProxyPolicy",
    "FixedProxyPolicy",
    "LocalProxyPolicy",
    "ProxiedMessenger",
    "ProxiedMutex",
    "ProxyManager",
    "ProxyPolicy",
]
