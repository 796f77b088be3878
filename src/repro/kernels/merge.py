"""Merge-based row/nonzero load balancing (Merrill & Garland [21]).

Section 5.2 attributes part of the residual inefficiency to row-level
non-zero skew: under row-per-warp, a warp stuck on a 10,000-nnz row sets
the critical path while its peers idle.  The paper points to the
merge-based decomposition as the orthogonal fix, applicable to both B- and
C-stationary.  This module implements it:

the SpMM work is viewed as a merge of two sorted lists — the row
boundaries (``row_ptr``) and the nonzero indices ``0..nnz-1`` — of total
length ``n_rows + nnz``.  Cutting the *merge path* into equal diagonals
gives each worker an equal share of (row-transitions + nonzeros),
regardless of skew; a worker may finish a row fragment, whose partial sum
is combined with a cheap fix-up pass.

``merge_path_partition`` computes exact cut points by binary search on the
diagonals; ``critical_path_items`` compares the largest share (provably
within one diagonal of perfect) against per-row assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..util import ceil_div


@dataclass(frozen=True)
class MergeSegment:
    """One worker's share of the merge path."""

    worker: int
    row_start: int
    row_end: int  # exclusive; the last row may be partial
    nnz_start: int
    nnz_end: int

    @property
    def n_items(self) -> int:
        """Merge items consumed: row transitions + nonzeros."""
        return (self.row_end - self.row_start) + (self.nnz_end - self.nnz_start)


def _diagonal_search(row_ptr: np.ndarray, diagonal: int) -> tuple[int, int]:
    """Find the merge-path crossing of one diagonal.

    Returns ``(i, j)`` with ``i + j == diagonal`` where ``i`` counts row
    boundaries consumed and ``j`` nonzeros consumed, such that all
    consumed nonzeros belong to consumed-or-current rows.
    """
    n_rows = row_ptr.size - 1
    lo = max(0, diagonal - (int(row_ptr[-1])))
    hi = min(diagonal, n_rows)
    while lo < hi:
        mid = (lo + hi) // 2
        # Crossing condition: row_ptr[mid+1] > diagonal - (mid+1) means the
        # path turns before consuming boundary mid+1.
        if row_ptr[mid + 1] <= diagonal - (mid + 1):
            lo = mid + 1
        else:
            hi = mid
    return lo, diagonal - lo


def merge_path_partition(row_ptr, n_workers: int) -> list[MergeSegment]:
    """Cut the (rows + nnz) merge path into ``n_workers`` equal diagonals."""
    ptr = np.asarray(row_ptr, dtype=np.int64)
    if ptr.size < 1 or ptr[0] != 0:
        raise ConfigError("row_ptr must start at 0")
    if n_workers <= 0:
        raise ConfigError("n_workers must be positive")
    n_rows = ptr.size - 1
    nnz = int(ptr[-1])
    total = n_rows + nnz
    segments = []
    per = ceil_div(total, n_workers) if total else 0
    prev = (0, 0)
    for w in range(n_workers):
        diag = min((w + 1) * per, total)
        cut = _diagonal_search(ptr, diag)
        segments.append(
            MergeSegment(
                worker=w,
                row_start=prev[0],
                row_end=cut[0],
                nnz_start=prev[1],
                nnz_end=cut[1],
            )
        )
        prev = cut
    return segments


def critical_path_items(row_lengths, n_workers: int, *, merge: bool) -> int:
    """Longest worker share: per-row assignment vs merge-path.

    Under row-per-warp scheduling the critical path is the heaviest row
    (plus its share of remaining rows); under merge-path it is the evenly
    cut diagonal.  The ratio of the two is the speedup headroom the paper
    attributes to merge-based balancing on skewed matrices.
    """
    lens = np.asarray(row_lengths, dtype=np.int64)
    if n_workers <= 0:
        raise ConfigError("n_workers must be positive")
    if lens.size == 0:
        return 0
    if merge:
        row_ptr = np.concatenate(([0], np.cumsum(lens)))
        segments = merge_path_partition(row_ptr, n_workers)
        return max((s.n_items for s in segments), default=0)
    # Row-granular: rows dealt round-robin by length-agnostic scheduler.
    shares = np.zeros(n_workers, dtype=np.int64)
    for i, length in enumerate(lens):
        shares[i % n_workers] += length + 1  # +1 row transition
    return int(shares.max())
