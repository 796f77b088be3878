"""Unit + property tests for the Section 6.2 multi-GPU models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.multigpu import (
    compare_a_formats,
    partition_coverage,
    plan_multi_gpu,
    stream_strip,
)


def make_plan(n_gpus=4, n_rows=2_000_000, cols=2_000_000, a_gb=2.0):
    return plan_multi_gpu(
        n_rows, cols, a_gb * 1024**3, n_gpus=n_gpus, gpu_memory_gb=16.0
    )


class TestPlan:
    def test_fig18_shape(self):
        """4 GPUs each own a quarter of B/C's columns, A replicated."""
        plan = make_plan()
        assert plan.n_gpus == 4
        assert partition_coverage(plan)
        assert plan.items[0].n_cols == 500_000

    def test_paper_scale_infeasible_monolithic(self):
        """2M x 2M dense B is ~15-17 TB — no single GPU holds it."""
        plan = make_plan(n_gpus=1)
        assert plan.b_strip_bytes > 10 * 1024**4  # > 10 TB

    def test_streaming_slack(self):
        plan = make_plan()
        assert plan.streaming_slack_bytes == pytest.approx(
            14.0 * 1024**3, rel=0.01
        )

    def test_host_traffic_counts_replication(self):
        p1 = make_plan(n_gpus=1)
        p4 = make_plan(n_gpus=4)
        # B/C stream volume is the same; A replication scales with GPUs.
        assert p4.host_traffic_bytes - p1.host_traffic_bytes == pytest.approx(
            3 * p1.a_bytes
        )

    def test_ragged_split(self):
        plan = plan_multi_gpu(100, 10, 0, n_gpus=3)
        assert partition_coverage(plan)
        assert sum(i.n_cols for i in plan.items) == 10

    def test_more_gpus_than_cols(self):
        plan = plan_multi_gpu(100, 2, 0, n_gpus=8)
        assert plan.n_gpus == 2  # degenerate GPUs dropped
        assert partition_coverage(plan)

    def test_a_too_big_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            plan_multi_gpu(100, 100, 20 * 1024**3, n_gpus=2)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            plan_multi_gpu(100, 100, 0, n_gpus=0)
        with pytest.raises(ConfigError):
            plan_multi_gpu(0, 100, 0, n_gpus=1)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, n_gpus, cols):
        plan = plan_multi_gpu(1000, cols, 0, n_gpus=n_gpus)
        assert partition_coverage(plan)


class TestStreaming:
    @pytest.fixture
    def small_plan(self):
        # 64k x 64k, 4 GPUs: strip = 64k x 16k x 4B = 4 GiB per GPU.
        return plan_multi_gpu(
            65536, 65536, 1.0 * 1024**3, n_gpus=4, gpu_memory_gb=16.0
        )

    def test_overlap_hides_transfers(self, small_plan):
        est = stream_strip(
            small_plan, compute_time_full_strip_s=1.0, link_bandwidth_gbps=32
        )
        # Serial = compute + 2x transfers; overlapped must beat it.
        assert est.overlap_efficiency > 1.0

    def test_compute_bound_strip_total_near_compute(self, small_plan):
        est = stream_strip(
            small_plan,
            compute_time_full_strip_s=100.0,
            link_bandwidth_gbps=32,
        )
        assert est.total_s == pytest.approx(100.0, rel=0.05)

    def test_transfer_bound_strip_total_near_transfer(self, small_plan):
        est = stream_strip(
            small_plan,
            compute_time_full_strip_s=1e-3,
            link_bandwidth_gbps=32,
            chunk_fraction=0.05,  # many chunks: head/tail amortized
        )
        strip_transfer = small_plan.b_strip_bytes / 32e9
        assert est.total_s == pytest.approx(strip_transfer, rel=0.25)

    def test_explicit_chunk_fraction(self, small_plan):
        est = stream_strip(
            small_plan,
            compute_time_full_strip_s=1.0,
            chunk_fraction=0.1,
        )
        assert est.n_chunks == 10

    def test_bad_inputs(self, small_plan):
        with pytest.raises(ConfigError):
            stream_strip(small_plan, compute_time_full_strip_s=-1.0)
        with pytest.raises(ConfigError):
            stream_strip(
                small_plan, compute_time_full_strip_s=1.0, chunk_fraction=2.0
            )
        with pytest.raises(ConfigError):
            stream_strip(
                small_plan,
                compute_time_full_strip_s=1.0,
                link_bandwidth_gbps=0,
            )


class TestFormatComparison:
    def test_compact_a_streams_faster(self):
        """Section 6.2: CSC's smaller resident A → bigger chunks → less
        head/tail loss → faster (or equal) end-to-end."""
        n = 500_000
        csc_plan = plan_multi_gpu(
            n, n, 10.0 * 1024**3, n_gpus=8, gpu_memory_gb=16.0
        )
        tiled_plan = plan_multi_gpu(
            n, n, 14.0 * 1024**3, n_gpus=8, gpu_memory_gb=16.0
        )
        cmp = compare_a_formats(
            csc_plan, tiled_plan, compute_time_full_strip_s=5.0
        )
        assert cmp["chunk_ratio"] > 1.0
        assert cmp["time_ratio"] >= 1.0

    def test_mismatched_plans_rejected(self):
        a = plan_multi_gpu(100, 100, 0, n_gpus=2)
        b = plan_multi_gpu(200, 100, 0, n_gpus=2)
        with pytest.raises(ConfigError):
            compare_a_formats(a, b, compute_time_full_strip_s=1.0)
