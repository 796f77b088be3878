"""Software reference conversions between every pair of formats.

These are the *offline* conversion paths the paper contrasts with its online
engine.  Besides producing correct containers (they are the oracle for the
engine model's output), the CSR→strip extractors also count the work each
strategy performs, reproducing Section 4.1's argument that CSR is a poor
baseline format for online tiling:

* the **stateless** CSR extractor binary-searches every row for each strip —
  O(n log nnz_row) probes per strip;
* the **stateful** CSR extractor keeps a per-row frontier — O(n) metadata
  held across calls, and random strip access degenerates to stateless cost;
* the **CSC** extractor just slices ``col_ptr`` — O(width) pointer reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConversionError
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .dcsr import DCSRMatrix
from .tiled import DEFAULT_TILE_WIDTH, TiledCSR, TiledDCSR


# --------------------------------------------------------------------- basic
def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """CSR → CSC via stable counting sort on columns."""
    rows, cols, vals = csr.to_coo_arrays()
    return CSCMatrix.from_coo(COOMatrix(csr.shape, rows, cols, vals))


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """CSC → CSR via stable counting sort on rows."""
    rows, cols, vals = csc.to_coo_arrays()
    return CSRMatrix.from_coo(COOMatrix(csc.shape, rows, cols, vals))


def csr_to_dcsr(csr: CSRMatrix) -> DCSRMatrix:
    """CSR → untiled DCSR (drop empty-row pointers)."""
    return DCSRMatrix.from_csr(csr)


def dcsr_to_csr(dcsr: DCSRMatrix) -> CSRMatrix:
    """Untiled DCSR → CSR (reinstate empty-row pointers)."""
    return dcsr.to_csr()


def to_format(matrix, target: str):
    """Convert any container to the named format.

    ``target`` is one of ``coo``, ``csr``, ``csc``, ``dcsr``, ``tiled_csr``,
    ``tiled_dcsr``.  Tiled targets use the default 64-column width.
    """
    rows, cols, vals = matrix.to_coo_arrays()
    coo = COOMatrix(matrix.shape, rows, cols, vals)
    if target == "coo":
        return coo.deduplicate()
    if target == "csr":
        return CSRMatrix.from_coo(coo)
    if target == "csc":
        return CSCMatrix.from_coo(coo)
    if target == "dcsr":
        return DCSRMatrix.from_coo(coo)
    if target == "dcsc":
        from .dcsc import DCSCMatrix

        return DCSCMatrix.from_coo(coo)
    if target == "ell":
        from .ell import ELLMatrix

        return ELLMatrix.from_coo(coo)
    if target == "tiled_csr":
        return TiledCSR.from_csc(CSCMatrix.from_coo(coo))
    if target == "tiled_dcsr":
        return TiledDCSR.from_csc(CSCMatrix.from_coo(coo))
    raise ConversionError(f"unknown target format {target!r}")


class FormatStore:
    """Memoizing conversion store for one logical matrix.

    Kernels and the runtime executor ask it for containers instead of
    calling :func:`to_format` directly, so repeated runs over the same
    matrix (plan-cache hits, batch mode) pay each conversion exactly
    once.  ``artifacts`` holds non-format derived objects under
    caller-chosen keys — e.g. the engine's
    :class:`~repro.engine.api.OnlineConversion` keyed by tile width.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self._formats: dict[str, object] = {}
        self.artifacts: dict = {}

    def get(self, target: str, *, tracer=None):
        """The matrix in ``target`` format, converting on first request.

        Pass a :class:`~repro.telemetry.Tracer` to time the conversion: a
        cached container reports a ``convert:<fmt>`` span with
        ``cached=True`` and near-zero duration, a first request times the
        actual offline conversion work.
        """
        if tracer is not None and tracer.enabled:
            with tracer.span(
                f"convert:{target}", cached=target in self._formats
            ):
                return self.get(target)
        if target not in self._formats:
            self._formats[target] = to_format(self.matrix, target)
        return self._formats[target]

    @property
    def cached_formats(self) -> tuple[str, ...]:
        return tuple(sorted(self._formats))


# --------------------------------------------- strip extraction cost models
def _binary_search_probes(lens: np.ndarray) -> np.ndarray:
    """Probe count a binary search of each segment length would perform.

    Exactly ``max(1, ceil(log2(max(len, 2))))`` per segment, computed as the
    bit length of ``len - 1`` via ``np.frexp`` — integer-exact (no float
    ``log2`` rounding), which keeps the vectorized extractors' cost
    counters bit-identical to the original per-row loops.
    """
    m = np.maximum(np.asarray(lens, dtype=np.int64) - 1, 1)
    return np.frexp(m.astype(np.float64))[1]


def _ragged_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+len)`` for each ragged segment."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.asarray([], dtype=np.int64)
    out_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    offsets = np.repeat(np.asarray(starts, dtype=np.int64) - out_starts, lens)
    return offsets + np.arange(total, dtype=np.int64)


@dataclass
class ExtractionCost:
    """Work counters for one strip-extraction strategy (Section 4.1)."""

    #: binary-search probes into col_idx arrays
    search_probes: int = 0
    #: metadata words held as persistent converter state
    state_words: int = 0
    #: pointer/index words read to locate the strip
    pointer_reads: int = 0

    def total_ops(self) -> int:
        """Aggregate operation count used for complexity comparisons."""
        return self.search_probes + self.pointer_reads


@dataclass
class StatefulCSRExtractor:
    """Stateful CSR strip extractor: remembers each row's column frontier.

    Sequential calls for strips 0, 1, 2, ... advance the jagged per-row
    frontier cheaply; a *random* strip access must rebuild the frontier with
    binary searches, which is why the paper rejects this design (random
    access is common — multiple SMs work on different strips).
    """

    csr: CSRMatrix
    frontier: np.ndarray = field(init=False)
    next_strip: int = field(init=False, default=0)
    cost: ExtractionCost = field(init=False)

    def __post_init__(self):
        self.frontier = self.csr.row_ptr[:-1].astype(np.int64).copy()
        # Converter must persist one frontier word per matrix row.
        self.cost = ExtractionCost(state_words=self.csr.n_rows)

    def extract(self, strip_id: int, width: int = DEFAULT_TILE_WIDTH) -> CSRMatrix:
        """Return the CSR strip ``strip_id``, updating frontier state.

        Vectorized over all rows at once; the cost counters charge exactly
        what the per-row frontier walk (and, on random access, the per-row
        binary search) would have performed.
        """
        col_start = strip_id * width
        col_end = min(col_start + width, self.csr.n_cols)
        if col_start >= self.csr.n_cols:
            raise ConversionError(f"strip {strip_id} out of range")
        row_ptr = np.asarray(self.csr.row_ptr, dtype=np.int64)
        col_idx = np.asarray(self.csr.col_idx)
        if strip_id != self.next_strip:
            # Random access: re-derive every row frontier by binary search.
            # Columns are sorted within each row, so each frontier is the
            # row start plus the count of that row's columns < col_start —
            # a prefix-sum difference over one global boolean mask.
            below = np.concatenate(
                ([0], np.cumsum(col_idx < col_start, dtype=np.int64))
            )
            self.frontier = row_ptr[:-1] + (
                below[row_ptr[1:]] - below[row_ptr[:-1]]
            )
            self.cost.search_probes += int(
                _binary_search_probes(np.diff(row_ptr)).sum()
            )
        # Sequential walk: each row consumes from its frontier up to the
        # first column >= col_end (same cumsum-of-mask trick).
        below_end = np.concatenate(
            ([0], np.cumsum(col_idx < col_end, dtype=np.int64))
        )
        new_frontier = self.frontier + (
            below_end[row_ptr[1:]] - below_end[self.frontier]
        )
        lens = new_frontier - self.frontier
        take = _ragged_indices(self.frontier, lens)
        cols_out = col_idx[take] - col_start
        vals = np.asarray(self.csr.values[take], dtype=self.csr.value_dtype)
        ptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
        self.cost.pointer_reads += 2 * self.csr.n_rows  # frontier + bound
        self.frontier = new_frontier
        self.next_strip = strip_id + 1
        return CSRMatrix((self.csr.n_rows, col_end - col_start), ptr, cols_out, vals)


def stateless_csr_extract(
    csr: CSRMatrix, strip_id: int, width: int = DEFAULT_TILE_WIDTH
) -> tuple[CSRMatrix, ExtractionCost]:
    """Stateless CSR strip extraction: binary-search every row, every call.

    Returns the strip plus the O(n log nnz_row) cost the paper calls
    prohibitive for a hardware engine.
    """
    col_start = strip_id * width
    col_end = min(col_start + width, csr.n_cols)
    if col_start >= csr.n_cols:
        raise ConversionError(f"strip {strip_id} out of range")
    row_ptr = np.asarray(csr.row_ptr, dtype=np.int64)
    col_idx = np.asarray(csr.col_idx)
    cost = ExtractionCost()
    # Two binary searches per row (strip start and end), vectorized as two
    # prefix sums over global boolean masks — columns sorted within rows.
    below_start = np.concatenate(
        ([0], np.cumsum(col_idx < col_start, dtype=np.int64))
    )
    below_end = np.concatenate(
        ([0], np.cumsum(col_idx < col_end, dtype=np.int64))
    )
    a = row_ptr[:-1] + (below_start[row_ptr[1:]] - below_start[row_ptr[:-1]])
    b = row_ptr[:-1] + (below_end[row_ptr[1:]] - below_end[row_ptr[:-1]])
    cost.search_probes += int(2 * _binary_search_probes(np.diff(row_ptr)).sum())
    cost.pointer_reads += 2 * csr.n_rows  # row_ptr[i], row_ptr[i+1]
    take = _ragged_indices(a, b - a)
    cols_out = col_idx[take] - col_start
    vals = np.asarray(csr.values[take], dtype=csr.value_dtype)
    ptr = np.concatenate(([0], np.cumsum(b - a, dtype=np.int64)))
    return CSRMatrix((csr.n_rows, col_end - col_start), ptr, cols_out, vals), cost


def csc_strip_extract(
    csc: CSCMatrix, strip_id: int, width: int = DEFAULT_TILE_WIDTH
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ExtractionCost]:
    """CSC strip extraction: O(width) pointer reads, no search, no state.

    Returns ``((col_ptr, row_idx, values), cost)`` — the raw slice the
    near-memory engine starts from.
    """
    col_start = strip_id * width
    col_end = min(col_start + width, csc.n_cols)
    if col_start >= csc.n_cols:
        raise ConversionError(f"strip {strip_id} out of range")
    slice_ = csc.strip_slice(col_start, col_end)
    return slice_, ExtractionCost(pointer_reads=(col_end - col_start) + 1)
