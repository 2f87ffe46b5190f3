"""Unit tests for the cost model and metrics collector."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.metrics import Category, CostModel, MetricsCollector

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: a two-scope report, dumped without ``sort_keys`` as report files are.
TWO_SCOPE_REPORT = """
import json
from repro.metrics import CostModel, MetricsCollector
m = MetricsCollector()
m.record_fixed("mobility")
m.record_fixed("R2", count=3)
print(json.dumps(m.report(CostModel())))
"""


class TestCostModel:
    def test_defaults_satisfy_model_constraints(self):
        c = CostModel()
        assert c.c_search >= c.c_fixed

    def test_search_below_fixed_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(c_fixed=5.0, c_search=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(c_wireless=-1.0)

    @pytest.mark.parametrize("field", ["c_fixed", "c_wireless", "c_search"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1", True])
    def test_non_number_cost_rejected_naming_its_field(self, field, value):
        # A NaN cost used to be accepted and priced every run NaN.
        with pytest.raises(ConfigurationError, match=f"CostModel.{field}"):
            CostModel(**{field: value})

    def test_mh_to_mh_cost(self):
        c = CostModel(c_fixed=1, c_wireless=5, c_search=10)
        assert c.mh_to_mh() == 20.0

    def test_mss_to_remote_mh_cost(self):
        c = CostModel(c_fixed=1, c_wireless=5, c_search=10)
        assert c.mss_to_remote_mh() == 15.0

    def test_worst_case_search(self):
        c = CostModel(c_fixed=2.0, c_search=10.0)
        assert c.worst_case_search(6) == 10.0

    def test_worst_case_search_rejects_empty_network(self):
        with pytest.raises(ConfigurationError):
            CostModel().worst_case_search(0)


class TestMetricsCollector:
    def test_counts_by_category(self):
        m = MetricsCollector()
        m.record_fixed("a")
        m.record_fixed("a")
        m.record_wireless_tx("mh-1", "a")
        m.record_search("b")
        assert m.total(Category.FIXED) == 2
        assert m.total(Category.WIRELESS) == 1
        assert m.total(Category.SEARCH) == 1
        assert m.total(Category.FIXED, "a") == 2
        assert m.total(Category.FIXED, "b") == 0

    def test_energy_tracks_tx_and_rx_per_mh(self):
        m = MetricsCollector()
        m.record_wireless_tx("mh-1")
        m.record_wireless_rx("mh-1")
        m.record_wireless_rx("mh-2")
        assert m.energy("mh-1") == 2
        assert m.energy("mh-2") == 1
        assert m.energy() == 3

    def test_cost_weights_categories(self):
        m = MetricsCollector()
        c = CostModel(c_fixed=1, c_wireless=5, c_search=10)
        m.record_fixed()
        m.record_wireless_tx("mh-1")
        m.record_search()
        m.record_search_probe(count=3)
        assert m.cost(c) == 1 + 5 + 10 + 3

    def test_cost_scoped(self):
        m = MetricsCollector()
        c = CostModel(c_fixed=1, c_wireless=5, c_search=10)
        m.record_fixed("x")
        m.record_fixed("y")
        assert m.cost(c, "x") == 1.0

    def test_snapshot_is_immutable_copy(self):
        m = MetricsCollector()
        m.record_fixed()
        snap = m.snapshot()
        m.record_fixed()
        assert snap.total(Category.FIXED) == 1
        assert m.total(Category.FIXED) == 2

    def test_since_returns_delta(self):
        m = MetricsCollector()
        m.record_fixed("s")
        before = m.snapshot()
        m.record_fixed("s")
        m.record_wireless_tx("mh-0", "s")
        delta = m.since(before)
        assert delta.total(Category.FIXED) == 1
        assert delta.total(Category.WIRELESS) == 1
        assert delta.energy("mh-0") == 1

    def test_reset_clears_everything(self):
        m = MetricsCollector()
        m.record_fixed()
        m.record_wireless_rx("mh-0")
        m.reset()
        assert m.total(Category.FIXED) == 0
        assert m.energy() == 0

    def test_report_structure(self):
        m = MetricsCollector()
        m.record_fixed("alg")
        report = m.report(CostModel())
        assert report["totals"]["fixed"] == 1
        assert report["by_scope"]["alg"]["fixed"] == 1
        assert "cost_total" in report

    def test_report_bytes_do_not_depend_on_the_hash_seed(self):
        """Two processes whose string hashes order ``{"R2", "mobility"}``
        differently write the same report, byte for byte."""
        dumps = [
            subprocess.run(
                [sys.executable, "-c", TWO_SCOPE_REPORT],
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert '"cost_by_scope": {"R2": 3.0, "mobility": 1.0}' in dumps[0]
        assert dumps[0] == dumps[1]

    def test_scopes_listed_in_snapshot(self):
        m = MetricsCollector()
        m.record_fixed("a")
        m.record_search("b")
        assert m.snapshot().scopes() == {"a", "b"}

    @given(
        st.lists(
            st.sampled_from(["fixed", "search", "probe"]), max_size=60
        )
    )
    def test_property_cost_is_linear_in_counts(self, ops):
        m = MetricsCollector()
        c = CostModel(c_fixed=2, c_wireless=7, c_search=11)
        for op in ops:
            if op == "fixed":
                m.record_fixed()
            elif op == "search":
                m.record_search()
            else:
                m.record_search_probe()
        expected = (
            ops.count("fixed") * 2
            + ops.count("search") * 11
            + ops.count("probe") * 2
        )
        assert m.cost(c) == expected
