"""Concrete mobility and disconnection models.

They drive the move/disconnect primitives of the paper's Section 2 protocol.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, require_number
from repro.sim import PoissonProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class MobilityModel:
    """Base class: schedules moves for a set of MHs.

    Subclasses implement ``choose_destination(mh_id, current)``, the
    destination cell of the next move (``None`` = stay put); the base class
    owns the per-MH Poisson move processes and skips MHs that are not
    currently connected (mid-move or disconnected) when their move
    timer fires.
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        move_rate: float,
        rng: random.Random,
    ) -> None:
        require_number(f"{type(self).__name__}.move_rate", move_rate)
        if move_rate <= 0:
            raise ConfigurationError("move_rate must be positive")
        if not mh_ids:
            raise ConfigurationError("mobility model needs MHs to move")
        self.network = network
        self.mh_ids = list(mh_ids)
        self.rng = rng
        self.moves_started = 0
        self.moves_skipped = 0
        self._processes = [
            PoissonProcess(
                network.scheduler,
                move_rate,
                partial(self._try_move, mh_id),
                rng=random.Random(rng.getrandbits(64)),
            )
            for mh_id in self.mh_ids
        ]

    def stop(self) -> None:
        """Stop all move processes."""
        for process in self._processes:
            process.stop()

    def set_rate(self, move_rate: float) -> None:
        """Change the per-MH move rate (rush hours, quiet nights)."""
        for process in self._processes:
            process.set_rate(move_rate)

    def _try_move(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if not mh.is_connected:
            self.moves_skipped += 1
            return
        destination = self.choose_destination(mh_id, mh.current_mss_id)
        if destination is None or destination == mh.current_mss_id:
            self.moves_skipped += 1
            return
        self.moves_started += 1
        mh.move_to(destination)


class UniformMobility(MobilityModel):
    """Moves to a uniformly random *different* cell."""

    def choose_destination(self, mh_id: str, current: str) -> Optional[str]:
        options = [m for m in self.network.mss_ids() if m != current]
        if not options:
            return None
        return self.rng.choice(options)


class GraphMobility(MobilityModel):
    """Moves along the edges of a cell adjacency graph.

    Args:
        adjacency: mapping from MSS id to its neighbouring MSS ids.
            Build one from any networkx graph with
            :meth:`GraphMobility.adjacency_from_graph`.
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        move_rate: float,
        rng: random.Random,
        adjacency: Dict[str, List[str]],
    ) -> None:
        super().__init__(network, mh_ids, move_rate, rng)
        known = set(network.mss_ids())
        for cell, neighbours in adjacency.items():
            if cell not in known or not set(neighbours) <= known:
                raise ConfigurationError(
                    f"adjacency references unknown cells around {cell!r}"
                )
        self.adjacency = {
            cell: list(neighbours)
            for cell, neighbours in adjacency.items()
        }

    @staticmethod
    def adjacency_from_graph(graph, mss_ids: List[str]) -> Dict[str, List]:
        """Map an arbitrary graph's nodes onto MSS ids, in node order.

        ``graph`` is any networkx-style graph with ``nodes`` and
        ``neighbors``; node i (in iteration order) becomes
        ``mss_ids[i]``.
        """
        nodes = list(graph.nodes)
        if len(nodes) != len(mss_ids):
            raise ConfigurationError(
                f"graph has {len(nodes)} nodes for {len(mss_ids)} cells"
            )
        label = dict(zip(nodes, mss_ids))
        return {
            label[node]: sorted(label[n] for n in graph.neighbors(node))
            for node in nodes
        }

    def choose_destination(self, mh_id: str, current: str) -> Optional[str]:
        neighbours = self.adjacency.get(current, [])
        if not neighbours:
            return None
        return self.rng.choice(neighbours)


class LocalizedMobility(MobilityModel):
    """Mostly hops among a small set of home cells; rarely escapes.

    With escape probability 0 the group's location view is confined to
    ``home_cells``, making most moves insignificant -- the regime where
    the location-view strategy shines.
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        move_rate: float,
        rng: random.Random,
        home_cells: Iterable[str],
        escape_probability: float = 0.0,
    ) -> None:
        super().__init__(network, mh_ids, move_rate, rng)
        self.home_cells = list(home_cells)
        if not self.home_cells:
            raise ConfigurationError("home_cells must be nonempty")
        if not 0.0 <= escape_probability <= 1.0:
            raise ConfigurationError(
                "escape_probability must be a probability"
            )
        self.escape_probability = escape_probability

    def choose_destination(self, mh_id: str, current: str) -> Optional[str]:
        if (
            self.escape_probability > 0.0
            and self.rng.random() < self.escape_probability
        ):
            outside = [
                m
                for m in self.network.mss_ids()
                if m not in self.home_cells and m != current
            ]
            if outside:
                return self.rng.choice(outside)
        options = [m for m in self.home_cells if m != current]
        if not options:
            return None
        return self.rng.choice(options)


class TraceMobility:
    """Replays an explicit (time, mh_id, destination_mss) trace."""

    def __init__(
        self,
        network: "Network",
        trace: Iterable[Tuple[float, str, str]],
    ) -> None:
        self.network = network
        self.moves_started = 0
        self.moves_skipped = 0
        for time, mh_id, mss_id in trace:
            network.scheduler.post_at(
                time, self._move, mh_id, mss_id
            )

    def _move(self, mh_id: str, mss_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if not mh.is_connected or mh.current_mss_id == mss_id:
            self.moves_skipped += 1
            return
        self.moves_started += 1
        mh.move_to(mss_id)


class DisconnectionModel:
    """Random voluntary disconnect / reconnect cycles.

    Each managed MH disconnects at exponential intervals and reconnects
    after ``downtime`` at a random cell (supplying its previous MSS id,
    per the reconnect protocol).
    """

    def __init__(
        self,
        network: "Network",
        mh_ids: List[str],
        disconnect_rate: float,
        downtime: float,
        rng: random.Random,
        supply_prev: bool = True,
    ) -> None:
        require_number("DisconnectionModel.downtime", downtime)
        if downtime <= 0:
            raise ConfigurationError("downtime must be positive")
        self.network = network
        self.rng = rng
        self.downtime = downtime
        self.supply_prev = supply_prev
        self.disconnections = 0
        self._processes = [
            PoissonProcess(
                network.scheduler,
                disconnect_rate,
                partial(self._try_disconnect, mh_id),
                rng=random.Random(rng.getrandbits(64)),
            )
            for mh_id in mh_ids
        ]

    def stop(self) -> None:
        """Stop initiating new disconnections."""
        for process in self._processes:
            process.stop()

    def _try_disconnect(self, mh_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if not mh.is_connected:
            return
        self.disconnections += 1
        mh.disconnect()
        target = self.rng.choice(self.network.mss_ids())
        self.network.scheduler.post(
            self.downtime, self._reconnect, mh_id, target
        )

    def _reconnect(self, mh_id: str, mss_id: str) -> None:
        mh = self.network.mobile_host(mh_id)
        if mh.is_disconnected:
            mh.reconnect(mss_id, supply_prev=self.supply_prev)
