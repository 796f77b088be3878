"""The SpMM arithmetic: canonical operand preparation, then scipy's product.

Every kernel multiplies from the **same canonical CSR arrays** — sorted,
deduplicated, float64 — produced once per container by
:func:`canonical_csr`.  scipy's CSR SpMM (``csr_matvecs`` in C++)
accumulates each output element sequentially in stored-index order, so
the product over these arrays is one exact float64 result whatever
container the matrix arrived in, and each output column depends only on
its own B column (what request coalescing relies on, see
:mod:`repro.runtime.fusion`).

The arithmetic is two-phase so benchmarks and services can separate
structure setup from arithmetic:

* :func:`canonical_csr` — canonicalize the sparse structure, memoized on
  the container, so only the first call over a container pays for it;
* :func:`spmm` — the arithmetic over prepared operands, the part a bench
  times and a kernel runs per call.

Accounting (traffic, stalls, row activity, SSF provenance) never enters
this module: it is a pure function of the plan and the non-zero
structure, computed by :mod:`repro.kernels.common`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...formats.base import memoized


@dataclass(frozen=True)
class PreparedOperand:
    """Canonical CSR arrays the product multiplies from.

    ``data`` is float64 and rides in stored order; ``indices`` are sorted
    within each row with duplicates already summed.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_rows: int
    n_cols: int


def canonical_csr(matrix) -> PreparedOperand:
    """Canonicalize any container's COO triplets into sorted/deduped CSR.

    This is the same construction ``scipy_spmm`` uses, so record digests
    match it: scipy's COO→CSR conversion sums duplicate entries and yields
    sorted column indices; the explicit ``sum_duplicates``/``sort_indices``
    calls below are no-op guards that pin the canonical form independent
    of scipy version.

    The result is memoized on ``matrix`` (see
    :func:`~repro.formats.base.memoized`): later calls over the same
    container return the same :class:`PreparedOperand` without touching
    its arrays.  :func:`spmm` only reads the prepared arrays.
    """
    return memoized(matrix, "canonical_csr", lambda: _build_canonical_csr(matrix))


def _build_canonical_csr(matrix) -> PreparedOperand:
    import scipy.sparse as sp

    rows, cols, vals = matrix.to_coo_arrays()
    a = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=matrix.shape
    )
    a.sum_duplicates()
    a.sort_indices()
    return PreparedOperand(
        indptr=np.asarray(a.indptr),
        indices=np.asarray(a.indices),
        data=np.asarray(a.data, dtype=np.float64),
        n_rows=int(matrix.n_rows),
        n_cols=int(matrix.n_cols),
    )


def spmm(prepared: PreparedOperand, dense: np.ndarray) -> np.ndarray:
    """The arithmetic: float64 ``A @ B`` over prepared operands.

    Rebuilds a zero-copy ``csr_matrix`` view over the prepared arrays and
    multiplies through ``scipy.sparse``.
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(
        (prepared.data, prepared.indices, prepared.indptr),
        shape=(prepared.n_rows, prepared.n_cols),
    )
    return np.asarray(a @ dense)
