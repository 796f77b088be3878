"""Densified CSC (DCSC) — the transpose-dual of DCSR (Section 4.1).

For *wide* matrices (many more columns than rows) CSC's ``col_ptr`` grows
past CSR's ``row_ptr``, so the paper suggests flipping the whole scheme:
store the matrix in CSR, tile it into *horizontal* strips, and let the
same engine walk **row** frontiers to emit DCSC tiles — "a DCSC kernel can
potentially be a host kernel at SMs, performing CSR-to-DCSC conversion
using the same engine".

DCSC mirrors DCSR exactly: ``col_idx`` lists the non-empty columns,
``col_ptr`` delimits only those columns, and ``row_idx``/``values`` hold
the entries sorted column-major.  Everything here is the mirror image of
:mod:`repro.formats.dcsr`, kept separate so each reads top-to-bottom.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..util import (
    as_index_array,
    as_value_array,
    check_in_range,
    check_monotone,
    check_shape,
)
from .base import SparseMatrix


class DCSCMatrix(SparseMatrix):
    """Densified CSC container (non-empty columns only)."""

    format_name = "dcsc"

    def __init__(self, shape, col_idx, col_ptr, row_idx, values, *, dtype=None):
        self.shape = check_shape(shape)
        self.col_idx = as_index_array(col_idx, name="col_idx")
        self.col_ptr = as_index_array(col_ptr, name="col_ptr")
        self.row_idx = as_index_array(row_idx, name="row_idx")
        self.values = as_value_array(values, dtype=dtype, name="values")
        self.validate()

    # ------------------------------------------------------------- interface
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def n_nonzero_cols(self) -> int:
        """Number of columns carrying at least one stored entry."""
        return int(self.col_idx.size)

    @property
    def value_dtype(self) -> np.dtype:
        return self.values.dtype

    def validate(self) -> None:
        if self.col_ptr.size != self.col_idx.size + 1:
            raise FormatError(
                f"col_ptr length {self.col_ptr.size} != len(col_idx)+1 "
                f"({self.col_idx.size + 1})"
            )
        check_monotone(self.col_ptr, name="col_ptr")
        if self.col_ptr[-1] != self.row_idx.size:
            raise FormatError(
                f"col_ptr[-1]={self.col_ptr[-1]} != len(row_idx)={self.row_idx.size}"
            )
        if self.row_idx.size != self.values.size:
            raise FormatError("row_idx/values length mismatch")
        check_in_range(self.col_idx, self.n_cols, name="col_idx")
        check_in_range(self.row_idx, self.n_rows, name="row_idx")
        if self.col_idx.size > 1 and np.any(np.diff(self.col_idx) <= 0):
            raise FormatError("col_idx must be strictly increasing")
        if self.col_idx.size and np.any(np.diff(self.col_ptr) == 0):
            raise FormatError("DCSC must not list empty columns")

    def to_coo_arrays(self):
        cols = np.repeat(self.col_idx, self.col_lengths())
        return self.row_idx, cols, self.values

    def metadata_arrays(self) -> dict[str, np.ndarray]:
        return {
            "col_idx": self.col_idx,
            "col_ptr": self.col_ptr,
            "row_idx": self.row_idx,
        }

    # --------------------------------------------------------------- queries
    def col_lengths(self) -> np.ndarray:
        """nnz per *stored* column (length ``n_nonzero_cols``)."""
        return np.diff(self.col_ptr)

    def stored_col_slice(self, k: int) -> tuple[int, np.ndarray, np.ndarray]:
        """``(col, row_idx, values)`` for the ``k``-th stored column."""
        lo, hi = int(self.col_ptr[k]), int(self.col_ptr[k + 1])
        return int(self.col_idx[k]), self.row_idx[lo:hi], self.values[lo:hi]

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_csc(cls, csc) -> "DCSCMatrix":
        """Densify a :class:`~repro.formats.csc.CSCMatrix`."""
        lengths = csc.col_lengths()
        nz_cols = np.flatnonzero(lengths)
        col_ptr = np.concatenate(([0], np.cumsum(lengths[nz_cols])))
        return cls(csc.shape, nz_cols, col_ptr, csc.row_idx, csc.values)

    @classmethod
    def from_coo(cls, coo) -> "DCSCMatrix":
        from .csc import CSCMatrix

        return cls.from_csc(CSCMatrix.from_coo(coo))

    @classmethod
    def from_dense(cls, dense, *, dtype=None) -> "DCSCMatrix":
        from .csc import CSCMatrix

        return cls.from_csc(CSCMatrix.from_dense(dense, dtype=dtype))

    def to_csc(self):
        """Expand back to CSC (re-inserting empty-column pointers)."""
        from .csc import CSCMatrix

        lengths = np.zeros(self.n_cols, dtype=np.int64)
        lengths[self.col_idx] = self.col_lengths()
        col_ptr = np.concatenate(([0], np.cumsum(lengths)))
        return CSCMatrix(self.shape, col_ptr, self.row_idx, self.values)

    def transpose_to_dcsr(self):
        """The structural duality: DCSC of A == DCSR of A^T."""
        from .dcsr import DCSRMatrix

        return DCSRMatrix(
            (self.n_cols, self.n_rows),
            self.col_idx,
            self.col_ptr,
            self.row_idx,
            self.values,
        )

