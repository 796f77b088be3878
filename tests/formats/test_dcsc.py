"""Unit tests for the DCSC container and the wide-matrix footprint claim."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    CSCMatrix,
    CSRMatrix,
    DCSCMatrix,
    DCSRMatrix,
    to_format,
)

from ..conftest import assert_same_matrix, random_dense


class TestDensify:
    def test_roundtrip_csc(self, small_dense):
        csc = CSCMatrix.from_dense(small_dense)
        dcsc = DCSCMatrix.from_csc(csc)
        back = dcsc.to_csc()
        np.testing.assert_array_equal(back.col_ptr, csc.col_ptr)
        assert_same_matrix(back, small_dense)

    def test_empty_columns_dropped(self, small_dense):
        # small_dense has column 7 forced empty
        dcsc = DCSCMatrix.from_dense(small_dense)
        assert 7 not in dcsc.col_idx.tolist()
        assert np.all(dcsc.col_lengths() > 0)

    def test_to_format(self, small_dense):
        out = to_format(CSRMatrix.from_dense(small_dense), "dcsc")
        assert out.format_name == "dcsc"
        assert_same_matrix(out, small_dense)

    def test_all_empty(self):
        dcsc = DCSCMatrix.from_dense(np.zeros((5, 5)))
        assert dcsc.nnz == 0 and dcsc.n_nonzero_cols == 0

    def test_stored_col_slice(self):
        dense = np.zeros((4, 6), dtype=np.float32)
        dense[1, 3] = 5.0
        dense[2, 3] = 6.0
        dcsc = DCSCMatrix.from_dense(dense)
        col, rows, vals = dcsc.stored_col_slice(0)
        assert col == 3
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(vals, [5.0, 6.0])


class TestDuality:
    def test_dcsc_is_dcsr_of_transpose(self, small_dense):
        """The structural duality the engine reuse rests on."""
        dcsc = DCSCMatrix.from_dense(small_dense)
        dcsr_t = DCSRMatrix.from_dense(small_dense.T)
        np.testing.assert_array_equal(dcsc.col_idx, dcsr_t.row_idx)
        np.testing.assert_array_equal(dcsc.col_ptr, dcsr_t.row_ptr)
        np.testing.assert_array_equal(dcsc.row_idx, dcsr_t.col_idx)
        np.testing.assert_allclose(dcsc.values, dcsr_t.values)

    def test_transpose_to_dcsr(self, small_dense):
        dcsc = DCSCMatrix.from_dense(small_dense)
        assert_same_matrix(dcsc.transpose_to_dcsr(), small_dense.T)


class TestInvariants:
    def test_col_idx_must_increase(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            DCSCMatrix((5, 5), [2, 1], [0, 1, 2], [0, 1], [1.0, 2.0])

    def test_empty_listed_col_rejected(self):
        with pytest.raises(FormatError, match="empty columns"):
            DCSCMatrix((5, 5), [0, 2], [0, 0, 1], [3], [1.0])

    def test_footprint_mirrors_dcsr(self, small_dense):
        dcsc = DCSCMatrix.from_dense(small_dense)
        dcsr_t = DCSRMatrix.from_dense(small_dense.T)
        assert dcsc.footprint_bytes() == dcsr_t.footprint_bytes()


class TestAxisChoice:
    def test_wide_prefers_csr(self):
        """Section 4.1: CSC becomes larger when the matrix is wide."""
        dense = random_dense((64, 512), 0.02, seed=3)
        csr = CSRMatrix.from_dense(dense)
        csc = CSCMatrix.from_dense(dense)
        assert csr.footprint_bytes() < csc.footprint_bytes()
