"""Crossover conditions behind the paper's qualitative comparisons.

Each function isolates one "who wins, and when" claim so benchmarks and
tests can assert the claim both analytically and against measured
simulator counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import formulas
from repro.metrics import CostModel


@dataclass(frozen=True)
class Comparison:
    """A predicted head-to-head between two strategies."""

    left_name: str
    right_name: str
    left_cost: float
    right_cost: float

    @property
    def winner(self) -> str:
        if self.left_cost == self.right_cost:
            return "tie"
        return (
            self.left_name
            if self.left_cost < self.right_cost
            else self.right_name
        )

    @property
    def factor(self) -> float:
        """How many times cheaper the winner is."""
        lo = min(self.left_cost, self.right_cost)
        hi = max(self.left_cost, self.right_cost)
        return float("inf") if lo == 0 else hi / lo


def l1_vs_l2(n_mh: int, n_mss: int, c: CostModel) -> Comparison:
    """L1 against L2 for one mutual exclusion execution.

    The paper: since ``C_search > C_fixed`` and N >= M, the overall
    cost is lower for L2 than L1 (L1's search overhead is proportional
    to N while L2's is constant).
    """
    return Comparison(
        "L1",
        "L2",
        formulas.l1_execution_cost(n_mh, c),
        formulas.l2_execution_cost(n_mss, c),
    )


def r1_r2_crossover_k(n_mh: int, n_mss: int, c: CostModel) -> float:
    """The K at which R2's traversal cost equals R1's.

    For K below this threshold R2 is cheaper; the paper's claim that R2
    wins for sparse request patterns is this inequality.
    """
    numerator = formulas.r1_traversal_cost(n_mh, c) - n_mss * c.c_fixed
    return numerator / formulas.r2_request_cost(c)


def always_inform_vs_pure_search_ratio(c: CostModel) -> float:
    """The mobility-to-message ratio below which always-inform beats
    pure search.

    Setting ``(ratio+1)*(2*C_w + C_f) < (2*C_w + C_s)`` gives
    ``ratio < (C_search - C_fixed) / (2*C_wireless + C_fixed)``.
    """
    return (c.c_search - c.c_fixed) / (2 * c.c_wireless + c.c_fixed)
