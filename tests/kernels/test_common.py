"""Unit tests for the shared traffic helpers, cross-checked against the
event-driven cache simulator."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu import LRUCache
from repro.kernels import (
    b_operand_traffic,
    c_atomic_traffic,
    c_single_write_bytes,
    n_b_column_groups,
    spmm_flops,
)
from repro.kernels.common import GATHER_LLC_CONTENTION


class TestBOperand:
    def test_zero_cache_hits_table1_bound(self):
        """No LLC → traffic equals the Table 1 no-cache model (nnz x K)."""
        t = b_operand_traffic(
            total_accesses=1000 * 64, unique_rows=100, dense_cols=64, llc_bytes=0
        )
        assert t.total_bytes == pytest.approx(1000 * 64 * 4)

    def test_huge_cache_hits_compulsory_floor(self):
        t = b_operand_traffic(
            total_accesses=1000 * 64,
            unique_rows=100,
            dense_cols=64,
            llc_bytes=1e12,
        )
        assert t.total_bytes == pytest.approx(100 * 64 * 4)

    def test_monotone_in_cache_size(self):
        sizes = [0, 1e4, 1e5, 1e6, 1e9]
        traffics = [
            b_operand_traffic(
                total_accesses=5000 * 64,
                unique_rows=2000,
                dense_cols=64,
                llc_bytes=s,
            ).total_bytes
            for s in sizes
        ]
        assert all(a >= b for a, b in zip(traffics, traffics[1:]))

    def test_prefetch_style_access_capped(self):
        """accesses < unique*K: compulsory adapts (no negative capacity)."""
        t = b_operand_traffic(
            total_accesses=10, unique_rows=100, dense_cols=64, llc_bytes=0
        )
        assert t.compulsory_bytes == pytest.approx(40)
        assert t.capacity_bytes == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            b_operand_traffic(-1, 0, 64, 0)
        with pytest.raises(ConfigError):
            b_operand_traffic(1, 1, 64, 0, contention=0.5)

    def test_between_bounds_midrange(self):
        """Partial-reuse regime sits strictly between the two bounds."""
        ws_bytes = 4000 * 64 * 4  # ~1 MB group working set
        llc = ws_bytes * GATHER_LLC_CONTENTION / 2  # holds half the set
        t = b_operand_traffic(
            total_accesses=50_000 * 64,
            unique_rows=4000,
            dense_cols=64,
            llc_bytes=llc,
        )
        lo = 4000 * 64 * 4
        hi = 50_000 * 64 * 4
        assert lo < t.total_bytes < hi


class TestCAtomic:
    def test_first_touch_costs_double(self):
        t = c_atomic_traffic(
            updates=100 * 64, unique_rows=100, dense_cols=64, llc_bytes=1e12
        )
        assert t.compulsory_bytes == pytest.approx(100 * 64 * 8)
        assert t.capacity_bytes == 0

    def test_zero_cache_retouches_all_miss(self):
        t = c_atomic_traffic(
            updates=300 * 64, unique_rows=100, dense_cols=64, llc_bytes=0
        )
        assert t.capacity_bytes == pytest.approx((300 - 100) * 64 * 8)

    def test_uncacheable_ignores_llc(self):
        t = c_atomic_traffic(
            updates=300 * 64,
            unique_rows=100,
            dense_cols=64,
            llc_bytes=1e12,
            cacheable=False,
        )
        assert t.capacity_bytes == pytest.approx((300 - 100) * 64 * 8)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            c_atomic_traffic(-1, 0, 64, 0)


class TestHelpers:
    def test_c_single_write(self):
        assert c_single_write_bytes(10, 64) == 10 * 64 * 4

    def test_groups(self):
        assert n_b_column_groups(64) == 1
        assert n_b_column_groups(65) == 2
        assert n_b_column_groups(2048) == 32

    def test_groups_bad(self):
        with pytest.raises(ConfigError):
            n_b_column_groups(0)

    def test_flops(self):
        assert spmm_flops(100, 64) == 2 * 100 * 64


class TestUniqueIndexCountMemo:
    def test_container_memo_counts_once_across_k(self, medium_csr, monkeypatch):
        """The k-independent count is kept on the container: a run at a
        new k (a fused window's total) reuses it instead of rescanning."""
        import pickle

        from repro.formats.base import container_memo
        from repro.gpu import get_config
        from repro.kernels import common, csr_spmm

        scans = []
        count = common.unique_index_count

        def counting(idx, nnz):
            scans.append(nnz)
            return count(idx, nnz)

        monkeypatch.setattr(common, "unique_index_count", counting)
        config = get_config("gv100")
        rng = np.random.default_rng(0)
        for k in (16, 48):
            csr_spmm(medium_csr, rng.random((medium_csr.n_cols, k)), config)
        assert scans == [medium_csr.nnz]
        expected = int(np.unique(medium_csr.col_idx).size)
        assert container_memo(medium_csr)["unique_cols"] == expected
        # the memo never rides along in a pickle
        clone = pickle.loads(pickle.dumps(medium_csr))
        assert container_memo(clone) == {}

    def test_distinct_arrays_do_not_collide(self):
        from repro.kernels.common import unique_index_count

        a = np.array([0, 0, 0])
        b = np.array([0, 1, 2])
        assert unique_index_count(a, 3) == 1
        assert unique_index_count(b, 3) == 3
        assert unique_index_count(a, 3) == 1

    def test_empty_is_zero_and_unmemoized(self):
        from repro.kernels import common

        idx = np.array([], dtype=np.int64)
        assert common.unique_index_count(idx, 0) == 0
        # the count holds no process-wide state; memos live on containers
        assert not hasattr(common, "_UNIQUE_COUNT_MEMO")


class TestAgainstEventDrivenCache:
    """Validate the analytic reuse model against exact LRU simulation."""

    def test_fitting_working_set_matches(self):
        """Accesses to a fitting working set: analytic model says only the
        compulsory misses reach DRAM; exact LRU agrees."""
        rng = np.random.default_rng(0)
        unique = 64
        line = 4  # one element per line for an apples-to-apples count
        cache = LRUCache(unique * line * 2, line_bytes=line, ways=2)
        stream = rng.integers(0, unique, size=4000)
        for addr in stream:
            cache.access_line(int(addr))
        # exact: one miss per distinct line
        assert cache.stats.misses == unique
        t = b_operand_traffic(
            total_accesses=4000,
            unique_rows=unique,
            dense_cols=1,
            llc_bytes=unique * 4 * 2 * GATHER_LLC_CONTENTION,
        )
        assert t.total_bytes == pytest.approx(unique * 4)

    def test_thrashing_working_set_matches(self):
        """Cyclic sweep of 2x-capacity working set: everything misses in
        exact LRU; analytic model with zero effective cache agrees."""
        unique = 128
        line = 4
        cache = LRUCache(unique * line // 2, line_bytes=line, ways=unique // 2)
        for rep in range(5):
            for addr in range(unique):
                cache.access_line(addr)
        assert cache.stats.hits == 0
        t = b_operand_traffic(
            total_accesses=5 * unique,
            unique_rows=unique,
            dense_cols=1,
            llc_bytes=0,
        )
        assert t.total_bytes == pytest.approx(5 * unique * 4)
