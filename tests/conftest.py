"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.formats import COOMatrix, CSCMatrix, CSRMatrix

# ``ci`` (the default) draws the same examples on every run and keeps no
# example database, so a result never depends on a local ``.hypothesis/``
# directory.  ``explore`` draws fresh examples and saves failing ones;
# select it with HYPOTHESIS_PROFILE=explore.
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def random_dense(shape, density, seed=0, dtype=np.float32):
    """Dense matrix with approximately ``density`` non-zeros, seeded."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    vals = rng.uniform(0.1, 1.0, size=shape).astype(dtype)
    return np.where(mask, vals, 0.0).astype(dtype)


@pytest.fixture
def small_dense():
    """A 12x10 dense matrix with mixed empty/non-empty rows and columns."""
    d = random_dense((12, 10), 0.25, seed=42)
    d[3, :] = 0.0  # force an empty row
    d[:, 7] = 0.0  # force an empty column
    return d


@pytest.fixture
def paper_fig1_matrix():
    """The 3x4 example from Fig. 1: rows {a,b,c}, {}, {x,y}.

    (The figure draws three rows and labels columns col1..col3 plus an extra
    column for y at col_idx 3.)
    """
    dense = np.zeros((3, 4), dtype=np.float32)
    dense[0, 0], dense[0, 1], dense[0, 2] = 1.0, 2.0, 3.0  # a b c
    dense[2, 1], dense[2, 3] = 4.0, 5.0  # x y
    return dense


@pytest.fixture
def medium_csr():
    """A 200x160 CSR matrix at ~2% density."""
    return CSRMatrix.from_dense(random_dense((200, 160), 0.02, seed=7))


@pytest.fixture
def medium_csc():
    """The CSC twin of ``medium_csr``."""
    return CSCMatrix.from_dense(random_dense((200, 160), 0.02, seed=7))


def assert_same_matrix(a, b, atol=1e-6):
    """Assert two containers (or a container and a dense array) agree."""
    da = a.to_dense() if hasattr(a, "to_dense") else np.asarray(a)
    db = b.to_dense() if hasattr(b, "to_dense") else np.asarray(b)
    assert da.shape == db.shape
    np.testing.assert_allclose(da, db, atol=atol)


def coo_from_triplets(shape, triplets, dtype=np.float32):
    """Build a COOMatrix from a list of (row, col, value) tuples."""
    if triplets:
        rows, cols, vals = zip(*triplets)
    else:
        rows, cols, vals = [], [], []
    return COOMatrix(shape, list(rows), list(cols), np.array(vals, dtype=dtype))


def float32_sum_bound(coo):
    """Per-cell bound on float32 summation error over ``coo``'s duplicates.

    Summing a cell's ``n`` entries in float32, in any order, lands within
    about ``n * eps32 * sum(|v|)`` of the exact sum; a cell with no entry
    gets a bound of 0.
    """
    count = np.zeros(coo.shape)
    abs_sum = np.zeros(coo.shape)
    np.add.at(count, (coo.rows, coo.cols), 1.0)
    np.add.at(abs_sum, (coo.rows, coo.cols), np.abs(coo.values.astype(np.float64)))
    return count * np.finfo(np.float32).eps * abs_sum
