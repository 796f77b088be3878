"""Planner tests: SSF routing, provenance, capability-constrained re-plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ssf as analysis_ssf
from repro.errors import ConfigError
from repro.formats import COOMatrix
from repro.gpu import GV100
from repro.matrices import block_diagonal, uniform_random
from repro.runtime import (
    FULL_CAPABILITIES,
    Capabilities,
    Planner,
    SpmmPlan,
    SpmmRequest,
)


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(min_value=4, max_value=60))
    n_cols = draw(st.integers(min_value=4, max_value=60))
    nnz = draw(st.integers(min_value=0, max_value=150))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    vals = rng.uniform(0.1, 1.0, size=nnz).astype(np.float32)
    return COOMatrix((n_rows, n_cols), rows, cols, vals).deduplicate()


@pytest.fixture(scope="module")
def skewed():
    """High-SSF case: block diagonal — B-stationary territory."""
    return block_diagonal(2048, 2048, 2e-2, block_size=64, seed=11)


@pytest.fixture(scope="module")
def uniform():
    """Low-SSF case: uniform scatter — C-stationary territory."""
    return uniform_random(1024, 1024, 1e-3, seed=11)


class TestRouting:
    def test_skewed_routes_online(self, skewed):
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64))
        assert plan.algorithm == "online_tiled_dcsr"
        assert plan.stationarity == "b"
        assert plan.a_format == "csc"
        assert plan.uses_engine
        assert len(plan.engine_placement) > 0

    def test_uniform_routes_c_stationary(self, uniform):
        plan = Planner(GV100).plan(SpmmRequest(uniform, k=64))
        assert plan.algorithm == "c_stationary_best"
        assert plan.stationarity == "c"
        assert plan.candidates == ("csr", "dcsr")
        assert not plan.uses_engine

    def test_threshold_override_flips_route(self, uniform):
        plan = Planner(GV100, ssf_threshold=0.0).plan(SpmmRequest(uniform, k=64))
        assert plan.algorithm == "online_tiled_dcsr"

    def test_request_threshold_wins(self, uniform):
        req = SpmmRequest(uniform, k=64, ssf_threshold=0.0)
        plan = Planner(GV100).plan(req)
        assert plan.algorithm == "online_tiled_dcsr"

    def test_negative_threshold_rejected(self, uniform):
        with pytest.raises(ConfigError):
            Planner(GV100, ssf_threshold=-1.0)
        with pytest.raises(ConfigError):
            Planner(GV100).plan(SpmmRequest(uniform, k=4, ssf_threshold=-2.0))


class TestProvenance:
    @given(small_matrices())
    @settings(max_examples=20, deadline=None)
    def test_ssf_matches_analysis_module(self, coo):
        """ISSUE property: plan provenance SSF == repro.analysis.ssf."""
        req = SpmmRequest(coo, k=8, tile_width=16)
        plan = Planner(GV100).plan(req)
        assert plan.provenance["ssf"] == analysis_ssf(coo, 16)

    def test_predicted_traffic_present_for_all_strategies(self, skewed):
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64))
        predicted = plan.provenance["predicted_traffic"]
        assert len(predicted) >= 2
        for est in predicted.values():
            assert est["total_bytes"] == pytest.approx(
                est["a_bytes"] + est["b_bytes"] + est["c_bytes"]
            )

    def test_matrix_identity_recorded(self, skewed):
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64))
        assert plan.provenance["matrix_shape"] == [2048, 2048]
        assert plan.provenance["matrix_nnz"] == skewed.nnz


class TestCapabilities:
    def test_no_online_falls_back_to_offline(self, skewed):
        caps = Capabilities(online_allowed=False)
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64), caps)
        assert plan.algorithm == "offline_tiled_dcsr"
        assert plan.provenance["degraded"] is True

    def test_zero_capacity_counts_as_no_online(self, skewed):
        caps = Capabilities(engine_capacity=0.0)
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64), caps)
        assert plan.algorithm == "offline_tiled_dcsr"

    def test_bottom_rung_untiled_csr(self, skewed):
        caps = Capabilities(engine_capacity=0.0, offline_tiled_available=False)
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64), caps)
        assert plan.algorithm == "untiled_csr"
        assert plan.stationarity == "c"

    def test_capabilities_never_change_c_stationary(self, uniform):
        caps = Capabilities(engine_capacity=0.0, offline_tiled_available=False)
        plan = Planner(GV100).plan(SpmmRequest(uniform, k=64), caps)
        assert plan.algorithm == "c_stationary_best"
        assert plan.provenance["degraded"] is False

    def test_capability_validation(self):
        with pytest.raises(ConfigError):
            Capabilities(engine_capacity=1.5)
        assert not Capabilities(engine_capacity=0.0).online_usable
        assert not FULL_CAPABILITIES.without_online().online_usable


class TestPlanSerialization:
    def test_round_trip(self, skewed):
        plan = Planner(GV100).plan(SpmmRequest(skewed, k=64))
        clone = SpmmPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.to_json() == plan.to_json()

    def test_request_requires_operand_spec(self, uniform):
        with pytest.raises(ConfigError):
            SpmmRequest(uniform)
