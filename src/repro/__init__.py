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
:mod:`repro.mutex.l2` and what it needs, and a run that never touches
the monitors, recovery or the proxy framework never loads them.
:mod:`repro.mutex` and :mod:`repro.trace` serve their names the same
way (one algorithm is compiled per mutex run, and the exporters only
for a run that exports).  Every other layer package (``repro.net``,
``repro.hosts``, ...) loads whole: the repository benchmark's tracing
shim finds a layer's modules by importing its package.
"""

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, modules: dict):
    """PEP 562 hooks that import a public name's module on first access.

    ``modules`` maps each defining module to the public names it
    exports.  Returns ``(sources, __getattr__, __dir__)`` for the
    package whose globals are ``namespace``: ``sources`` is the flat
    name -> module table, and a resolved name is cached in
    ``namespace``, so the hook runs once per name.  :mod:`repro.mutex`
    and :mod:`repro.trace` reuse it; it lives here because
    ``import repro`` must load nothing else.
    """
    package = namespace["__name__"]
    sources = {name: module
               for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        try:
            module = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # __import__, not importlib.import_module: the import statement's
        # own path, which ``-X importtime`` (the cold-start ledger) sees.
        value = namespace[name] = getattr(
            __import__(module, fromlist=[name]), name)
        return value

    def __dir__():
        return sorted({*namespace, *sources})

    return sources, __getattr__, __dir__


#: layer -> the public names it defines; the one place the top-level
#: API is listed (``__all__``, ``dir()`` and attribute access are all
#: served from it).
_SOURCE_OF, __getattr__, __dir__ = _lazy_exports(globals(), {
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
})

__all__ = sorted([*_SOURCE_OF, "__version__"])
