"""repro -- a reproduction of "Structuring Distributed Algorithms for
Mobile Hosts" (Badrinath, Acharya, Imielinski; ICDCS 1994).

The library provides:

* a discrete-event simulation of the paper's system model (mobile hosts,
  support stations, FIFO wireless cells, a reliable fixed network, and
  the three-parameter cost currency C_fixed / C_wireless / C_search);
* the four mutual exclusion algorithm families of Section 3
  (:class:`L1Mutex`, :class:`L2Mutex`, :class:`R1Mutex`,
  :class:`R2Mutex` with the R2' and R2'' variants);
* the three group location management strategies of Section 4
  (:class:`PureSearchGroup`, :class:`AlwaysInformGroup`,
  :class:`LocationViewGroup`);
* the proxy framework of Section 5 (:mod:`repro.proxy`);
* the paper's analytic cost formulas (:mod:`repro.analysis`) used as
  oracles by the benchmark suite.

Quickstart::

    from repro import CostModel, CriticalResource, L2Mutex, Simulation

    sim = Simulation(n_mss=4, n_mh=12, seed=7)
    resource = CriticalResource(sim.scheduler)
    mutex = L2Mutex(sim.network, resource)
    mutex.request(sim.mh_id(0))
    sim.drain()
    assert resource.access_count == 1

Top-level names load on first access: ``import repro`` itself imports
no layer, ``repro.L2Mutex`` (or ``from repro import L2Mutex``) imports
:mod:`repro.mutex` and what it needs, and a run that never touches the
monitors, recovery or the proxy framework never loads them.  A layer
package (``repro.mutex``, ``repro.net``, ...) still loads whole.
"""

from importlib import import_module

__version__ = "1.0.0"

#: public name -> the layer that defines it; the one place the
#: top-level API is listed (``__all__``, ``dir()`` and attribute access
#: are all served from it).
_LAYER_OF = {
    name: layer
    for layer, names in {
        "repro.errors": (
            "ConfigurationError", "FairnessViolation",
            "InvariantViolationError", "MutualExclusionViolation",
            "NotConnectedError", "ProtocolError", "ReproError",
            "SimulationError", "UnknownHostError",
        ),
        "repro.facade": ("Simulation",),
        "repro.faults": (
            "FaultInjector", "FaultPlan", "LinkFault", "MhCrash",
            "MssCrash", "Partition", "apply_fault_plan",
        ),
        "repro.hosts": (
            "HostState", "MobileHost", "MobileSupportStation",
        ),
        "repro.metrics": ("Category", "CostModel", "MetricsCollector"),
        "repro.multicast": ("ExactlyOnceMulticast",),
        "repro.mutex": (
            "CriticalResource", "L1Mutex", "L2Mutex", "R1Mutex",
            "R2Mutex", "R2Variant",
        ),
        "repro.net": (
            "AbstractSearch", "BroadcastSearch", "ConstantLatency",
            "Network", "NetworkConfig", "ReliableTransport",
            "UniformLatency",
        ),
        "repro.monitor": (
            "HealthMonitor", "LivenessMonitor", "Monitor", "MonitorHub",
            "Violation", "default_monitors", "replay_events",
            "safety_monitors",
        ),
        "repro.recovery": (
            "CheckpointPolicy", "CounterClient", "DistancePolicy",
            "MutexCheckpointClient", "NoCheckpointPolicy",
            "PerMessagePolicy", "PeriodicPolicy", "RecoveryClient",
            "RecoveryManager",
        ),
        "repro.trace": (
            "TraceEvent", "Tracer", "to_chrome", "to_jsonl", "to_mermaid",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_LAYER_OF, "__version__"])


def __getattr__(name: str):
    """Import the layer behind a public name on first access (PEP 562)."""
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = globals()[name] = getattr(import_module(layer), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
