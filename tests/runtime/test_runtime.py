"""Runtime facade tests: caching, record identity, hybrid equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.formats import COOMatrix
from repro.gpu import GV100
from repro.matrices import block_diagonal, uniform_random
from repro.runtime import (
    Capabilities,
    PlanCache,
    RunRecord,
    SpmmRequest,
    SpmmRuntime,
    matrix_fingerprint,
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
    return block_diagonal(1024, 1024, 2e-2, block_size=64, seed=3)


@pytest.fixture(scope="module")
def uniform():
    return uniform_random(512, 512, 1e-3, seed=3)


class TestRequestValidation:
    """An invalid request fails at construction, so it can never reach
    (and poison) a fused window or a worker."""

    @pytest.mark.parametrize("kwargs", [
        {},
        {"k": 0},
        {"k": -3},
        {"dense": np.ones(40, dtype=np.float32)},
        {"dense": np.ones((41, 4), dtype=np.float32)},
        {"dense": np.ones((39, 4), dtype=np.float32)},
        {"dense": np.ones((40, 4, 1), dtype=np.float32)},
        {"k": 4, "ssf_threshold": -5.0},
    ], ids=["no-k", "k-zero", "k-negative", "dense-1d", "dense-rows-over",
            "dense-rows-under", "dense-3d", "threshold-negative"])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SpmmRequest(uniform_random(32, 40, 0.1, seed=1), **kwargs)

    def test_explicit_dense_needs_no_k(self):
        m = uniform_random(32, 40, 0.1, seed=1)
        request = SpmmRequest(m, dense=np.ones((40, 4), dtype=np.float32), k=0)
        assert request.dense_cols == 4


class TestPlanCache:
    def test_cold_then_hit(self, skewed):
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(skewed, k=32)
        cold = runtime.run(req)
        warm = runtime.run(req)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert runtime.cache.stats == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_hit_record_bit_identical(self, skewed):
        """ISSUE acceptance: cache hit reproduces the cold record exactly."""
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(skewed, k=32)
        cold = runtime.run(req)
        warm = runtime.run(req)
        assert warm.record.to_json() == cold.record.to_json()
        assert warm.record.digest() == cold.record.digest()

    def test_hit_skips_reconversion(self, skewed):
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(skewed, k=32)
        runtime.run(req)
        _, store, hit = runtime.plan(req)
        assert hit
        # The online engine conversion was materialized once and is still
        # in the shared store for the next execution to reuse.
        assert any(k[0] == "online_conversion" for k in store.artifacts)

    def test_distinct_k_distinct_entries(self, skewed):
        runtime = SpmmRuntime(GV100)
        runtime.run(SpmmRequest(skewed, k=16))
        runtime.run(SpmmRequest(skewed, k=32))
        assert runtime.cache.stats["entries"] == 2
        assert runtime.cache.stats["hits"] == 0

    def test_capabilities_partition_the_cache(self, skewed):
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(skewed, k=16)
        runtime.run(req)
        runtime.run(req, capabilities=Capabilities(online_allowed=False))
        assert runtime.cache.stats["entries"] == 2

    def test_lru_eviction(self, uniform, skewed):
        runtime = SpmmRuntime(GV100, cache=PlanCache(max_entries=1))
        runtime.run(SpmmRequest(uniform, k=8))
        runtime.run(SpmmRequest(skewed, k=8))
        outcome = runtime.run(SpmmRequest(uniform, k=8))
        assert outcome.cache_hit is False
        assert len(runtime.cache) == 1

    def test_fingerprint_distinguishes_values(self):
        a = COOMatrix((2, 2), [0], [1], np.array([1.0], dtype=np.float32))
        b = COOMatrix((2, 2), [0], [1], np.array([2.0], dtype=np.float32))
        assert matrix_fingerprint(a) != matrix_fingerprint(b)
        assert matrix_fingerprint(a) == matrix_fingerprint(a)


class TestHybridEquivalence:
    @given(small_matrices(), st.integers(min_value=1, max_value=48))
    @settings(max_examples=15, deadline=None)
    def test_hybrid_matches_a_run_variant(self, coo, k):
        """ISSUE property: the routed hybrid is one of the individual
        variants and numerically identical to it."""
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(coo, k=k, tile_width=16)
        variants = runtime.run_all_variants(req)
        outcome = runtime.run(req)
        chosen = outcome.execution.run
        if outcome.plan.algorithm == "c_stationary_best":
            twin = variants["c_stationary_best"]
            # The router races csr vs dcsr; both kernels must agree on the
            # fastest, and the hybrid must return exactly that run.
            assert chosen.name == twin.name
        else:
            twin = variants[outcome.plan.algorithm]
        assert chosen.time_s == twin.time_s
        np.testing.assert_array_equal(
            np.asarray(chosen.result.output), np.asarray(twin.result.output)
        )

    def test_hybrid_never_slower_than_both_arms(self, skewed):
        runtime = SpmmRuntime(GV100)
        req = SpmmRequest(skewed, k=32)
        variants = runtime.run_all_variants(req)
        chosen = runtime.run(req).execution.run
        arms = (variants["c_stationary_best"], variants["online_tiled_dcsr"])
        # SSF is a heuristic, but the chosen arm is always one of the two.
        assert any(chosen.time_s == a.time_s for a in arms)


class TestRunRecord:
    def test_round_trip(self, skewed):
        record = SpmmRuntime(GV100).run(SpmmRequest(skewed, k=32)).record
        clone = RunRecord.from_json(record.to_json())
        assert clone.to_json() == record.to_json()
        assert clone.digest() == record.digest()
        assert clone.variant == record.variant
        assert clone.timing.total_s == record.timing.total_s

    def test_record_carries_plan_and_counters(self, skewed):
        record = SpmmRuntime(GV100).run(SpmmRequest(skewed, k=32)).record
        assert record.plan["algorithm"] == "online_tiled_dcsr"
        assert record.plan["provenance"]["ssf"] > 0
        assert record.traffic.total_bytes > 0
        assert record.stall.memory + record.stall.sm + record.stall.other == (
            pytest.approx(1.0)
        )
        assert record.output["shape"] == [1024, 32]
        assert len(record.output["sha256"]) == 64

    def test_explicit_dense_equals_seeded_request(self, skewed):
        req = SpmmRequest(skewed, k=16, seed=9)
        explicit = SpmmRequest(skewed, dense=req.resolve_dense())
        r1 = SpmmRuntime(GV100).run(req).record
        r2 = SpmmRuntime(GV100).run(explicit).record
        assert r1.to_json() == r2.to_json()
