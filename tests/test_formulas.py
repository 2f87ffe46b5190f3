"""Tests for the analytic formulas and crossover comparisons."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis import comparisons, formulas
from repro.errors import ConfigurationError
from repro.metrics import CostModel

C = CostModel(c_fixed=1.0, c_wireless=5.0, c_search=10.0)


class TestMutexFormulas:
    def test_l1_execution_cost(self):
        # 3 * (N-1) * (2*5 + 10) = 3*4*20 = 240 for N=5.
        assert formulas.l1_execution_cost(5, C) == 240.0

    def test_l2_execution_cost(self):
        # 3*5 + 1 + 10 + 3*4*1 = 38 for M=5.
        assert formulas.l2_execution_cost(5, C) == 38.0

    def test_l1_energy(self):
        assert formulas.l1_energy_total(5) == 24
        assert formulas.l1_energy_initiator(5) == 12
        assert formulas.l1_energy_non_initiator() == 3

    def test_r1_traversal_cost(self):
        assert formulas.r1_traversal_cost(5, C) == 100.0

    def test_r2_traversal_cost(self):
        # K*(15+1+10) + M*1 = 3*26 + 5 = 83.
        assert formulas.r2_traversal_cost(3, 5, C) == 83.0

    def test_r2_request_bounds(self):
        assert formulas.r2_max_requests_per_traversal(10, 4) == 40
        assert formulas.r2_prime_max_requests_per_traversal(10) == 10

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            formulas.l1_execution_cost(1, C)
        with pytest.raises(ConfigurationError):
            formulas.r2_traversal_cost(-1, 4, C)

    @given(st.integers(2, 200), st.integers(2, 200))
    def test_property_l2_beats_l1_when_m_at_most_n(self, m, n):
        """The paper's claim: with C_search > C_fixed and M <= N, L2 is
        cheaper than L1."""
        if m > n:
            m, n = n, m
        assert formulas.l2_execution_cost(m, C) < \
            formulas.l1_execution_cost(n, C)


class TestGroupFormulas:
    def test_pure_search_message_cost(self):
        assert formulas.pure_search_message_cost(5, C) == 4 * 20.0

    def test_always_inform_costs(self):
        assert formulas.always_inform_message_cost(5, C) == 4 * 11.0
        assert formulas.always_inform_total_cost(5, 10, 5, C) == \
            15 * 44.0
        assert formulas.always_inform_effective_cost(5, 2.0, C) == \
            3 * 44.0

    def test_location_view_message_cost(self):
        # (3-1)*1 + 5*5 = 27.
        assert formulas.location_view_message_cost(3, 5, C) == 27.0

    def test_location_view_update_bound(self):
        assert formulas.location_view_update_cost_bound(4, C) == 7.0

    def test_location_view_total_bound_consistent_with_effective(self):
        total = formulas.location_view_total_cost_bound(
            lv_max=3, g=5, f=0.5, mob=20, msg=10, c=C
        )
        effective = formulas.location_view_effective_cost_bound(
            lv_max=3, g=5, f=0.5, mob_to_msg_ratio=2.0, c=C
        )
        assert total == pytest.approx(effective * 10)

    def test_view_size_constraint_enforced(self):
        with pytest.raises(ConfigurationError):
            formulas.location_view_message_cost(6, 5, C)

    @given(
        g=st.integers(2, 50),
        ratio=st.floats(0.0, 100.0),
    )
    def test_property_pure_search_is_mobility_independent(self, g, ratio):
        base = formulas.pure_search_message_cost(g, C)
        assert base == formulas.pure_search_message_cost(g, C)
        # Always-inform grows with the ratio; pure search does not.
        ai = formulas.always_inform_effective_cost(g, ratio, C)
        assert ai >= formulas.always_inform_effective_cost(g, 0.0, C)

    @given(
        g=st.integers(2, 50),
        f=st.floats(0.0, 1.0),
        ratio=st.floats(0.0, 50.0),
    )
    def test_property_location_view_depends_only_on_significant(
        self, g, f, ratio
    ):
        """Scaling mobility while scaling f down in proportion leaves
        the LV effective bound unchanged (it depends only on f*ratio)."""
        lv = g  # worst case: one member per cell
        a = formulas.location_view_effective_cost_bound(lv, g, f, ratio, C)
        if f > 0 and ratio > 0:
            b = formulas.location_view_effective_cost_bound(
                lv, g, f / 2, ratio * 2, C
            )
            assert a == pytest.approx(b)


class TestComparisons:
    def test_l1_vs_l2_winner(self):
        comparison = comparisons.l1_vs_l2(n_mh=20, n_mss=5, c=C)
        assert comparison.winner == "L2"
        assert comparison.factor > 1.0

    def test_r1_vs_r2_sparse_requests(self):
        # One request per traversal: R2 pays for K, R1 for all N.
        assert (formulas.r2_traversal_cost(1, 5, C)
                < formulas.r1_traversal_cost(20, C))

    def test_r1_vs_r2_crossover(self):
        k_star = comparisons.r1_r2_crossover_k(20, 5, C)
        r1 = formulas.r1_traversal_cost(20, C)
        assert formulas.r2_traversal_cost(k_star, 5, C) == pytest.approx(r1)
        assert formulas.r2_traversal_cost(int(k_star) - 1, 5, C) < r1
        assert formulas.r2_traversal_cost(int(k_star) + 2, 5, C) > r1

    def test_group_strategy_cost_table(self):
        g, lv_max, f, ratio = 10, 3, 0.2, 1.0
        location_view = formulas.location_view_effective_cost_bound(
            lv_max, g, f, ratio, C)
        # Clustered, moderately mobile group: location view wins.
        assert location_view < formulas.pure_search_message_cost(g, C)
        assert location_view < formulas.always_inform_effective_cost(
            g, ratio, C)

    def test_always_inform_crossover_ratio(self):
        threshold = comparisons.always_inform_vs_pure_search_ratio(C)
        g = 8
        cheap = formulas.always_inform_effective_cost(
            g, threshold * 0.9, C
        )
        costly = formulas.always_inform_effective_cost(
            g, threshold * 1.1, C
        )
        ps = formulas.pure_search_message_cost(g, C)
        assert cheap < ps < costly

    def test_tie_and_zero_factor(self):
        comparison = comparisons.Comparison("a", "b", 3.0, 3.0)
        assert comparison.winner == "tie"
        zero = comparisons.Comparison("a", "b", 0.0, 1.0)
        assert zero.factor == float("inf")
