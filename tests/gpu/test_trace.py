"""Trace-driven validation of the analytic traffic model."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.formats import to_format
from repro.gpu import GV100
from repro.kernels import b_stationary_spmm, csr_spmm, random_dense_operand
from repro.matrices import block_diagonal, uniform_random

from .trace import trace_b_stationary, trace_csr_spmm


@pytest.fixture(scope="module")
def small_uniform():
    return to_format(uniform_random(128, 128, 0.05, seed=41), "csr")


class TestCSRTrace:
    def test_zero_cache_equals_compulsory_bound(self, small_uniform):
        """With no LLC every gather misses: B bytes >= nnz x K x 4 (line
        granularity rounds up)."""
        k = 64
        res = trace_csr_spmm(small_uniform, k, llc_bytes=0)
        assert res.b_bytes >= small_uniform.nnz * k * 4
        assert res.b_hit_rate == 0.0

    def test_huge_cache_equals_single_fetch(self, small_uniform):
        """With an infinite LLC each useful B line misses exactly once."""
        k = 64
        res = trace_csr_spmm(small_uniform, k, llc_bytes=1 << 24)
        unique_cols = np.unique(small_uniform.col_idx).size
        # One fill per distinct touched line: ~unique_cols x K x 4 bytes.
        assert res.b_bytes == pytest.approx(unique_cols * k * 4, rel=0.1)

    def test_analytic_model_within_trace_band(self, small_uniform):
        """The kernel's analytic B traffic lies between the two exact
        bounds the trace produces."""
        k = 64
        lo = trace_csr_spmm(small_uniform, k, llc_bytes=1 << 24).b_bytes
        hi = trace_csr_spmm(small_uniform, k, llc_bytes=0).b_bytes
        analytic = csr_spmm(
            small_uniform, random_dense_operand(128, k, seed=1), GV100
        ).traffic.b_bytes
        assert lo * 0.9 <= analytic <= hi * 1.1

    def test_partial_cache_between_bounds(self, small_uniform):
        k = 64
        lo = trace_csr_spmm(small_uniform, k, llc_bytes=1 << 24).b_bytes
        hi = trace_csr_spmm(small_uniform, k, llc_bytes=0).b_bytes
        mid = trace_csr_spmm(small_uniform, k, llc_bytes=8192).b_bytes
        assert lo <= mid <= hi

    def test_interleaving_stays_within_bounds(self, small_uniform):
        """Concurrency changes the miss pattern (mixing can be destructive
        for disjoint column sets or constructive for shared ones); every
        interleaving must stay within the [single-fetch, no-cache] band
        the analytic model is calibrated inside."""
        k = 64
        lo = trace_csr_spmm(small_uniform, k, llc_bytes=1 << 24).b_bytes
        hi = trace_csr_spmm(small_uniform, k, llc_bytes=0).b_bytes
        for il in (1, 8, 64):
            mid = trace_csr_spmm(
                small_uniform, k, llc_bytes=16384, interleave_rows=il
            ).b_bytes
            assert lo <= mid <= hi

    def test_a_streams_per_group(self, small_uniform):
        r1 = trace_csr_spmm(small_uniform, 64, llc_bytes=0)
        r2 = trace_csr_spmm(small_uniform, 128, llc_bytes=0)
        assert r2.a_bytes == pytest.approx(2 * r1.a_bytes)

    def test_bad_params(self, small_uniform):
        with pytest.raises(ConfigError):
            trace_csr_spmm(small_uniform, 0, llc_bytes=0)
        with pytest.raises(ConfigError):
            trace_csr_spmm(small_uniform, 64, llc_bytes=0, interleave_rows=0)


class TestBStationaryTrace:
    @pytest.fixture(scope="class")
    def tiled(self):
        return to_format(
            block_diagonal(256, 256, 0.05, block_size=64, seed=42),
            "tiled_dcsr",
        )

    def test_b_single_fetch_matches_kernel(self, tiled):
        k = 64
        trace = trace_b_stationary(tiled, k, llc_bytes=1 << 24)
        kernel = b_stationary_spmm(
            tiled, random_dense_operand(256, k, seed=1), GV100
        )
        assert trace.b_bytes == pytest.approx(kernel.traffic.b_bytes)

    def test_c_atomics_cached_when_fitting(self, tiled):
        """A C working set that fits: each row fills+writes back once."""
        k = 64
        res = trace_b_stationary(tiled, k, llc_bytes=1 << 24)
        rows_all, _, _ = tiled.to_coo_arrays()
        unique_rows = np.unique(rows_all).size
        assert res.c_bytes == pytest.approx(unique_rows * k * 4 * 2, rel=0.1)

    def test_c_atomics_thrash_without_cache(self, tiled):
        k = 64
        cached = trace_b_stationary(tiled, k, llc_bytes=1 << 24).c_bytes
        thrash = trace_b_stationary(tiled, k, llc_bytes=0).c_bytes
        assert thrash >= cached

    def test_kernel_c_traffic_within_trace_band(self, tiled):
        k = 64
        lo = trace_b_stationary(tiled, k, llc_bytes=1 << 24).c_bytes
        hi = trace_b_stationary(tiled, k, llc_bytes=0).c_bytes
        kernel = b_stationary_spmm(
            tiled, random_dense_operand(256, k, seed=1), GV100
        )
        total_c = kernel.traffic.c_bytes + kernel.traffic.atomic_bytes
        assert lo * 0.9 <= total_c <= hi * 1.1

    def test_bad_params(self, tiled):
        with pytest.raises(ConfigError):
            trace_b_stationary(tiled, 0, llc_bytes=0)
