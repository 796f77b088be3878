"""Unit + property tests for merge-path load balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kernels.merge import (
    critical_path_items,
    merge_path_partition,
)


class TestPartition:
    def test_single_worker_owns_everything(self):
        row_ptr = [0, 2, 2, 5]
        segs = merge_path_partition(row_ptr, 1)
        assert len(segs) == 1
        assert segs[0].row_end == 3
        assert segs[0].nnz_end == 5

    def test_segments_contiguous(self):
        row_ptr = np.concatenate(([0], np.cumsum([3, 0, 7, 1, 0, 2])))
        segs = merge_path_partition(row_ptr, 4)
        for a, b in zip(segs, segs[1:]):
            assert a.row_end == b.row_start
            assert a.nnz_end == b.nnz_start
        assert segs[-1].row_end == 6
        assert segs[-1].nnz_end == 13

    def test_balanced_within_one_diagonal(self):
        # One monster row: row-granular scheduling would serialize it.
        row_ptr = np.concatenate(([0], np.cumsum([1000, 1, 1, 1])))
        segs = merge_path_partition(row_ptr, 4)
        items = [s.n_items for s in segs]
        assert max(items) <= -(-sum(items) // 4) + 1

    def test_empty_matrix(self):
        segs = merge_path_partition([0], 4)
        assert all(s.n_items == 0 for s in segs)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            merge_path_partition([0, 1], 0)
        with pytest.raises(ConfigError):
            merge_path_partition([1, 2], 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_properties(self, lengths, n_workers):
        row_ptr = np.concatenate(([0], np.cumsum(lengths)))
        segs = merge_path_partition(row_ptr, n_workers)
        # Coverage: segments tile the merge path exactly.
        assert segs[0].row_start == 0 and segs[0].nnz_start == 0
        assert segs[-1].row_end == len(lengths)
        assert segs[-1].nnz_end == sum(lengths)
        for a, b in zip(segs, segs[1:]):
            assert (a.row_end, a.nnz_end) == (b.row_start, b.nnz_start)
        # Balance: within one diagonal of the even split.
        total = len(lengths) + sum(lengths)
        per = -(-total // n_workers)
        assert all(s.n_items <= per for s in segs)
        # Consistency: a cut may land mid-row, so consumed nonzeros extend
        # at most into the *current* row (row_end), never beyond it.
        for s in segs:
            assert s.nnz_end <= row_ptr[min(s.row_end + 1, len(lengths))]
            assert s.nnz_start <= row_ptr[min(s.row_start + 1, len(lengths))]


class TestCriticalPath:
    def test_merge_beats_rows_on_skew(self):
        """The paper's point: skewed rows serialize row-granular warps."""
        lens = [5000] + [1] * 127
        merge = critical_path_items(lens, 32, merge=True)
        rows = critical_path_items(lens, 32, merge=False)
        assert merge < rows / 5

    def test_uniform_rows_no_advantage(self):
        lens = [8] * 128
        merge = critical_path_items(lens, 32, merge=True)
        rows = critical_path_items(lens, 32, merge=False)
        assert merge <= rows * 1.2

    def test_empty(self):
        assert critical_path_items([], 4, merge=True) == 0

    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            critical_path_items([1], 0, merge=True)
