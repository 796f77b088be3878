"""Backend contract: canonical operand preparation + the two-phase API.

Every backend multiplies from the **same canonical CSR arrays** — sorted,
deduplicated, float64 — produced once by :func:`canonical_csr`.  That
shared preparation is what makes the numeric-equality contract *bit*
equality rather than a tolerance: scipy's CSR SpMM accumulates each
output element sequentially in stored-index order, and every backend
reproduces exactly that accumulation order over exactly those arrays
(one multiply rounding + one add rounding per nonzero per column, no
FMA contraction, no pairwise regrouping).

The API is two-phase so benchmarks and services can separate structure
setup from arithmetic:

* :meth:`SpmmBackend.prepare` — canonicalize the sparse structure (and,
  for JIT backends, trigger compilation) — memoized on the container, so
  only the first call over a container pays for it;
* :meth:`SpmmBackend.spmm` — the arithmetic over prepared operands —
  the part a bench times and a kernel dispatches per call;
* :meth:`SpmmBackend.execute` — the one-shot convenience the simulated
  kernels use (``spmm(prepare(matrix), b)``).

Accounting (traffic, stalls, row activity, SSF provenance) never enters
this module: it is a pure function of the plan and the non-zero
structure, computed by :mod:`repro.kernels.common` identically for every
backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...formats.base import memoized


@dataclass(frozen=True)
class PreparedOperand:
    """Canonical CSR arrays a backend multiplies from.

    ``data`` is float64 and rides in stored order; ``indices`` are sorted
    within each row with duplicates already summed — the exact arrays the
    scipy reference path multiplies, so a backend that walks them in
    order is bit-identical to scipy by construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_rows: int
    n_cols: int


def canonical_csr(matrix) -> PreparedOperand:
    """Canonicalize any container's COO triplets into sorted/deduped CSR.

    This is the same construction the pre-backend ``scipy_spmm`` used, so
    existing record digests are unchanged: scipy's COO→CSR conversion
    sums duplicate entries and yields sorted column indices; the explicit
    ``sum_duplicates``/``sort_indices`` calls below are no-op guards that
    pin the canonical form independent of scipy version.

    The result is memoized on ``matrix`` (see
    :func:`~repro.formats.base.memoized`): later calls over the same
    container return the same :class:`PreparedOperand` without touching
    its arrays.  Backends only read the prepared arrays.
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


class SpmmBackend:
    """One arithmetic implementation of ``A @ B`` over canonical CSR.

    Subclasses set :attr:`name`, optionally :attr:`available` (with
    :attr:`requires` naming the missing dependency), and implement
    :meth:`spmm`.  The contract every backend must honor:

    * **bit-identical outputs** — ``spmm`` returns float64 equal, byte
      for byte, to the scipy reference on the same prepared operands;
    * **counter invariance** — backends touch numerics only; they never
      see or influence the analytical model.
    """

    #: registry name (``numpy`` / ``scipy`` / ``numba``)
    name: str = "?"
    #: False when the backing dependency is not importable here
    available: bool = True
    #: human install hint reported when an unavailable backend is requested
    requires: str = ""

    def prepare(self, matrix) -> PreparedOperand:
        """Canonicalize ``matrix`` (and warm any JIT) for repeated spmm."""
        return canonical_csr(matrix)

    def spmm(self, prepared: PreparedOperand, dense: np.ndarray) -> np.ndarray:
        """The arithmetic: float64 ``A @ B`` over prepared operands."""
        raise NotImplementedError

    def execute(self, matrix, dense: np.ndarray) -> np.ndarray:
        """One-shot convenience: ``spmm(prepare(matrix), dense)``."""
        return self.spmm(self.prepare(matrix), dense)
