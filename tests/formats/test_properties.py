"""Property-based tests (hypothesis) for format invariants and round-trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    DCSRMatrix,
    TiledCSR,
    TiledDCSR,
    to_format,
)

from ..conftest import float32_sum_bound


@st.composite
def coo_matrices(draw, max_rows=40, max_cols=40, max_nnz=120):
    """Random COO matrices including empty, duplicate-free after dedup."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_rows - 1),
            min_size=nnz,
            max_size=nnz,
        )
    )
    cols = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_cols - 1),
            min_size=nnz,
            max_size=nnz,
        )
    )
    vals = draw(
        st.lists(
            st.floats(
                min_value=-100,
                max_value=100,
                allow_nan=False,
                allow_infinity=False,
                width=32,
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(
        (n_rows, n_cols), rows, cols, np.array(vals, dtype=np.float32)
    )


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_dedup_idempotent(coo):
    once = coo.deduplicate()
    twice = once.deduplicate()
    np.testing.assert_array_equal(once.rows, twice.rows)
    np.testing.assert_array_equal(once.cols, twice.cols)
    np.testing.assert_allclose(once.values, twice.values)


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_dedup_preserves_dense(coo):
    err = np.abs(
        coo.deduplicate().to_dense().astype(np.float64) - coo.to_dense()
    )
    assert np.all(err <= float32_sum_bound(coo))


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_csr_roundtrip_through_csc(coo):
    csr = CSRMatrix.from_coo(coo)
    back = to_format(to_format(csr, "csc"), "csr")
    np.testing.assert_array_equal(back.row_ptr, csr.row_ptr)
    np.testing.assert_array_equal(back.col_idx, csr.col_idx)
    np.testing.assert_allclose(back.values, csr.values, atol=1e-5)


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_dcsr_roundtrip(coo):
    csr = CSRMatrix.from_coo(coo)
    dcsr = DCSRMatrix.from_csr(csr)
    back = dcsr.to_csr()
    np.testing.assert_array_equal(back.row_ptr, csr.row_ptr)
    np.testing.assert_allclose(back.to_dense(), csr.to_dense(), atol=1e-5)


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_dcsr_invariants(coo):
    dcsr = DCSRMatrix.from_coo(coo)
    # No listed row may be empty, and row indices strictly increase.
    assert np.all(np.diff(dcsr.row_ptr) > 0) or dcsr.n_nonzero_rows == 0
    if dcsr.n_nonzero_rows > 1:
        assert np.all(np.diff(dcsr.row_idx) > 0)
    # nnz conservation
    assert dcsr.nnz == coo.deduplicate().nnz


@given(coo_matrices(), st.integers(min_value=1, max_value=17))
@settings(max_examples=60, deadline=None)
def test_tiled_roundtrip_any_width(coo, width):
    csc = CSCMatrix.from_coo(coo)
    tiled = TiledDCSR.from_csc(csc, tile_width=width)
    np.testing.assert_allclose(tiled.to_dense(), csc.to_dense(), atol=1e-5)
    assert tiled.nnz == csc.nnz


@given(coo_matrices(), st.integers(min_value=1, max_value=17))
@settings(max_examples=40, deadline=None)
def test_tiled_dcsr_metadata_never_above_tiled_csr_plus_rowidx(coo, width):
    """Per strip: DCSR metadata <= CSR metadata + nnzrows (the added row_idx
    is always paid back unless every row is non-empty)."""
    csc = CSCMatrix.from_coo(coo)
    tc = TiledCSR.from_csc(csc, tile_width=width)
    td = TiledDCSR.from_tiled_csr(tc)
    for s_csr, s_dcsr in zip(tc.strips, td.strips):
        assert (
            s_dcsr.metadata_bytes()
            <= s_csr.metadata_bytes() + 4 * s_dcsr.n_nonzero_rows
        )


@given(coo_matrices(), st.integers(min_value=1, max_value=13))
@settings(max_examples=40, deadline=None)
def test_row_tiles_partition_strip(coo, height):
    """Row tiles of a strip partition its nnz exactly."""
    csc = CSCMatrix.from_coo(coo)
    tiled = TiledDCSR.from_csc(csc, tile_width=8)
    for sid in range(tiled.n_strips):
        total = sum(t.nnz for _, t in tiled.iter_row_tiles(sid, height))
        assert total == tiled.strips[sid].nnz


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_footprint_positive_and_additive(coo):
    for target in ("csr", "csc", "dcsr"):
        m = to_format(coo, target)
        assert m.footprint_bytes() == m.metadata_bytes() + m.value_bytes()
        assert m.value_bytes() == 4 * m.nnz


@given(coo_matrices())
@settings(max_examples=40, deadline=None)
def test_csc_has_sorted_indices_by_construction(coo):
    assert CSCMatrix.from_coo(coo).has_sorted_indices()
