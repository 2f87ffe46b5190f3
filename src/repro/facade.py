"""The :class:`Simulation` facade -- the library's one-stop entry point.

Builds a complete mobile system (scheduler, metrics, network, M support
stations, N mobile hosts with an initial placement) from a handful of
parameters, and exposes convenience accessors used by the examples,
tests and benchmarks.

Example::

    from repro import CostModel, Simulation

    sim = Simulation(n_mss=5, n_mh=20, seed=42)
    sim.mh(0).move_to(sim.mss_id(3))
    sim.run(until=100.0)
    print(sim.metrics.report(sim.cost_model))
One constructor builds the paper's whole Section 2 system model.
"""

from __future__ import annotations

import random
from array import array
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.errors import ConfigurationError
from repro.hosts import MobileHost, MobileSupportStation
from repro.metrics import CostModel, MetricsCollector
from repro.net import Network, NetworkConfig
from repro.net.cache_search import CachingSearch
from repro.net.regional_search import RegionalSearch
from repro.net.search import (
    AbstractSearch,
    BroadcastSearch,
    HomeAgentSearch,
    SearchProtocol,
)
from repro.sim import Scheduler

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults import FaultPlan

#: ways to place the N MHs into the M cells at construction time.
Placement = Union[str, Sequence[int], Callable[[int, int], int]]

_SEARCH_FACTORIES: Dict[str, Callable[[], SearchProtocol]] = {
    "abstract": AbstractSearch,
    "broadcast": BroadcastSearch,
    "home-agent": HomeAgentSearch,
    "caching": CachingSearch,
    "regional": RegionalSearch,
}


def _check_type(name: str, value, accepted: type,
                optional: bool = False) -> None:
    """Reject a wrong-typed argument here, by name, before it fails
    somewhere deep inside the build (or, for ``cost_model``, after)."""
    if optional and value is None:
        return
    if not isinstance(value, accepted):
        raise ConfigurationError(
            f"{name} must be {'None or ' if optional else ''}"
            f"an instance of {accepted.__name__}: {value!r}"
        )


def _iter_placement(
    placement: Placement, n_mh: int, n_mss: int, rng: random.Random
) -> Iterable[int]:
    """Initial cell indices, one per MH.

    Never an N-element python list (at N=1M that alone would rival the
    population store's whole footprint): the periodic placements are
    repeated ``array`` blocks built at C speed, the rest lazy streams.
    Draw order for ``"random"`` is identical to the eager path, so a
    given seed places MHs the same way with and without the store.
    """
    if callable(placement):
        return (placement(i, n_mss) % n_mss for i in range(n_mh))
    if isinstance(placement, str):
        if placement == "round_robin":
            cells = array("i", range(n_mss)) * (n_mh // n_mss + 1)
            del cells[n_mh:]
            return cells
        if placement == "single_cell":
            return array("i", [0]) * n_mh
        if placement == "random":
            return (rng.randrange(n_mss) for _ in range(n_mh))
        raise ConfigurationError(f"unknown placement: {placement!r}")
    cells = list(placement)
    if len(cells) != n_mh:
        raise ConfigurationError(
            f"placement lists {len(cells)} cells for {n_mh} MHs"
        )
    return (cell % n_mss for cell in cells)


def _resolve_placement(
    placement: Placement, n_mh: int, n_mss: int, rng: random.Random
) -> List[int]:
    """Index of the initial cell for each MH."""
    return list(_iter_placement(placement, n_mh, n_mss, rng))


class Simulation:
    """A fully wired mobile system.

    Args:
        n_mss: number of support stations M (ids ``mss-0`` .. ``mss-{M-1}``).
        n_mh: number of mobile hosts N (ids ``mh-0`` .. ``mh-{N-1}``).
        seed: master random seed (drives latency draws, placements and
            any workload built on :attr:`rng`).
        cost_model: pricing used when reporting costs (counting is
            price-independent).
        config: network timing knobs.
        search: ``"abstract"`` (default), ``"broadcast"``,
            ``"home-agent"``, ``"caching"``, ``"regional"``, or a
            :class:`SearchProtocol` instance.
        placement: initial MH placement -- ``"round_robin"`` (default),
            ``"single_cell"``, ``"random"``, an explicit list of cell
            indices, or a callable ``(mh_index, n_mss) -> cell_index``.
        timeline: when ``True``, collect costs in a
            :class:`~repro.metrics.timeline.TimelineCollector` (a
            timestamped record per transmission) instead of the plain
            counting :class:`~repro.metrics.MetricsCollector`.
        fault_plan: optional :class:`~repro.faults.FaultPlan`; when
            given, the fault injector (and, per the plan, the reliable
            delivery layer) is installed before any algorithm attaches,
            so protocols built on this simulation auto-detect it.
        recovery: optional checkpointing policy for the
            :mod:`repro.recovery` subsystem -- a
            :class:`~repro.recovery.CheckpointPolicy` instance or a
            string spec (``"per-message"``, ``"periodic:10"``,
            ``"distance:2"``, ``"none"``).  Builds a
            :class:`~repro.recovery.RecoveryManager` over every MH,
            exposed as :attr:`recovery`.
        trace: when ``True``, install a :class:`~repro.trace.Tracer` as
            :attr:`tracer` (and on ``network.trace``) so every send,
            receive and protocol step is recorded as a
            :class:`~repro.trace.TraceEvent`.  Purely observational:
            costs, message counts and randomness are identical either
            way.
        monitors: online invariant monitoring -- ``None``/``False``
            (default, off), ``True`` or ``"default"`` for
            :func:`~repro.monitor.default_monitors`, or a sequence of
            :class:`~repro.monitor.Monitor` instances.  Installs a
            :class:`~repro.monitor.MonitorHub` as :attr:`monitor_hub`;
            purely observational, like ``trace``.  Emit sites append
            compact rows to the :mod:`repro.obs` ledger and the
            monitors replay them in drained batches with per-event
            semantics, off the protocol's hot path; :meth:`run` and
            :meth:`drain` end with a drain, so monitor objects are
            current whenever either returns.  With ``trace=True`` the
            hub records the event list and delivers per event instead
            (the reference the ledger is tested against).  See
            ``docs/observability.md``.
        population_store: when ``True``, back the N MHs by the
            array-based :class:`~repro.scale.PopulationStore` instead
            of N python objects.  Hosts are transparently promoted to
            objects on first touch; with the abstract search protocol,
            small-N runs are byte-identical to the object path.  See
            ``docs/scaling.md``.
        max_active: soft cap on simultaneously promoted hosts (only
            with ``population_store=True``; default 1024).
    """

    def __init__(
        self,
        n_mss: int,
        n_mh: int,
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        config: Optional[NetworkConfig] = None,
        search: Union[str, SearchProtocol] = "abstract",
        placement: Placement = "round_robin",
        timeline: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trace: bool = False,
        monitors: Union[None, bool, str, Sequence] = None,
        recovery: Union[None, str, object] = None,
        population_store: bool = False,
        max_active: Optional[int] = None,
    ) -> None:
        _check_type("n_mss", n_mss, int)
        _check_type("n_mh", n_mh, int)
        _check_type("cost_model", cost_model, CostModel, optional=True)
        _check_type("config", config, NetworkConfig, optional=True)
        if fault_plan is not None:
            # The fault layer loads only for runs that have a plan.
            from repro.faults import FaultPlan, apply_fault_plan

            _check_type("fault_plan", fault_plan, FaultPlan)
        if n_mss < 1:
            raise ConfigurationError("need at least one MSS")
        if n_mh < 0:
            raise ConfigurationError("n_mh must be nonnegative")
        self.n_mss = n_mss
        self.n_mh = n_mh
        self.rng = random.Random(seed)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.scheduler = Scheduler()
        if timeline:
            from repro.metrics.timeline import TimelineCollector

            self.metrics = TimelineCollector(self.scheduler)
        else:
            self.metrics = MetricsCollector()
        if isinstance(search, str):
            try:
                search = _SEARCH_FACTORIES[search]()
            except KeyError:
                raise ConfigurationError(
                    f"unknown search protocol {search!r}; options: "
                    f"{sorted(_SEARCH_FACTORIES)}"
                ) from None
        elif not isinstance(search, SearchProtocol):
            raise ConfigurationError(
                f"search must be one of {sorted(_SEARCH_FACTORIES)} or a "
                f"SearchProtocol instance: {search!r}"
            )
        self.network = Network(
            scheduler=self.scheduler,
            metrics=self.metrics,
            config=config,
            search_protocol=search,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        #: the installed tracer, or ``None`` when tracing is off.
        self.tracer = None
        #: the installed monitor hub, or ``None`` when monitoring is off.
        self.monitor_hub = None
        if monitors:
            from repro.monitor import Monitor, MonitorHub, default_monitors

            if monitors is True or monitors == "default":
                monitor_list = default_monitors()
            elif isinstance(monitors, (list, tuple)) and all(
                isinstance(monitor, Monitor) for monitor in monitors
            ):
                monitor_list = list(monitors)
            else:
                raise ConfigurationError(
                    "monitors must be True, 'default' or a sequence of "
                    f"Monitor instances: {monitors!r}"
                )
            # The hub *is* a tracer: with trace=True it records events
            # like a plain Tracer would and delivers them per event;
            # with trace=False it keeps only ledger rows until the
            # next drain, bounding memory.
            self.monitor_hub = MonitorHub(
                self.scheduler, monitor_list, record=trace
            )
            self.network.trace = self.monitor_hub
            self.monitor_hub.bind(self.network)
            if trace:
                self.tracer = self.monitor_hub
        elif trace:
            from repro.trace import Tracer

            self.tracer = Tracer(self.scheduler)
            self.network.trace = self.tracer
        self._mss: List[MobileSupportStation] = []
        for i in range(n_mss):
            mss = MobileSupportStation(f"mss-{i}", self.network)
            self.network.register_mss(mss)
            self._mss.append(mss)
        self._mh: List[MobileHost] = []
        #: the array-backed crowd store, or ``None`` on the object path.
        self.population = None
        if population_store:
            from repro.scale import PopulationStore

            self.population = PopulationStore(
                self.network,
                n_mh,
                placement=_iter_placement(
                    placement, n_mh, n_mss, self.rng
                ),
                max_active=max_active if max_active is not None else 1024,
            )
            self.network.install_population(self.population)
        else:
            if max_active is not None:
                raise ConfigurationError(
                    "max_active requires population_store=True"
                )
            cells = _resolve_placement(placement, n_mh, n_mss, self.rng)
            for i in range(n_mh):
                mh = MobileHost(f"mh-{i}", self.network)
                self.network.register_mh(mh)
                mh.attach_initial(f"mss-{cells[i]}")
                self._mh.append(mh)
        self.fault_injector = (
            apply_fault_plan(self.network, fault_plan)
            if fault_plan is not None
            else None
        )
        #: the recovery manager, or ``None`` when ``recovery=`` is off.
        self.recovery = None
        if recovery is not None and population_store:
            # The manager registers a restore handler on every covered
            # MH, which would promote (and pin) the entire crowd.
            # Construct RecoveryManager(network, mh_ids=[...]) over the
            # active subset instead (docs/scaling.md).
            raise ConfigurationError(
                "recovery= is incompatible with population_store=True; "
                "build a RecoveryManager over an explicit mh_ids subset"
            )
        if recovery is not None:
            from repro.recovery import RecoveryManager, policy_from_spec

            self.recovery = RecoveryManager(
                self.network, policy=policy_from_spec(recovery)
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def mss(self, index: int) -> MobileSupportStation:
        """The i-th support station."""
        return self._mss[index]

    def mh(self, index: int) -> MobileHost:
        """The i-th mobile host.

        With the population store enabled this promotes a passive host
        to a full object -- use :meth:`mh_id` when only the id is
        needed.
        """
        if self.population is not None:
            return self.network.mobile_host(self.mh_id(index))
        return self._mh[index]

    def mss_id(self, index: int) -> str:
        """Id of the i-th support station."""
        return self._mss[index].host_id

    def mh_id(self, index: int) -> str:
        """Id of the i-th mobile host."""
        if self.population is not None:
            if not 0 <= index < self.n_mh:
                raise IndexError(index)
            return f"mh-{index}"
        return self._mh[index].host_id

    @property
    def mss_ids(self) -> List[str]:
        """Ids of all support stations, in order."""
        return [mss.host_id for mss in self._mss]

    @property
    def mh_ids(self) -> List[str]:
        """Ids of all mobile hosts, in order (O(N) with the store)."""
        if self.population is not None:
            return self.population.all_ids()
        return [mh.host_id for mh in self._mh]

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.scheduler.now

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Advance the simulation (see :meth:`Scheduler.run`)."""
        return self._run(
            self.scheduler.run, until=until, max_events=max_events
        )

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (see :meth:`Scheduler.drain`)."""
        return self._run(self.scheduler.drain, max_events=max_events)

    def _run(self, step, **limits) -> int:
        """Run ``step``; under a ledger hub, finish with a drain so the
        monitors have seen every event by the time the caller looks."""
        fired = step(**limits)
        hub = self.monitor_hub
        if hub is not None and not hub.record:
            hub.drain_batches()
        return fired

    def cost(self, scope: Optional[str] = None) -> float:
        """Total recorded cost, priced with this simulation's model."""
        return self.metrics.cost(self.cost_model, scope)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def monitor_report(self) -> str:
        """Finalize the monitors and return their summary report."""
        if self.monitor_hub is None:
            return "invariant monitors: not installed"
        self.monitor_hub.finalize()
        return self.monitor_hub.report()

    def assert_invariants(self) -> None:
        """Finalize the monitors and raise if any invariant was violated.

        No-op when the simulation was built without ``monitors=``.
        """
        if self.monitor_hub is None:
            return
        self.monitor_hub.finalize()
        if not self.monitor_hub.ok:
            from repro.errors import InvariantViolationError

            raise InvariantViolationError(
                "invariant violations observed:\n"
                + self.monitor_hub.report()
            )
