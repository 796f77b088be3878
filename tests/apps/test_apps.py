"""Integration tests for the blocked eigensolver workload."""

import numpy as np
import pytest

from repro.apps import block_eigensolver
from repro.errors import ConfigError
from repro.formats import COOMatrix
from repro.matrices import uniform_random

from ..conftest import coo_from_triplets


class TestEigensolver:
    def test_leading_eigenvalue_of_symmetric(self):
        """Cross-check against numpy on a symmetric sparse matrix."""
        m = uniform_random(96, 96, 0.08, seed=52)
        rows, cols, vals = m.to_coo_arrays()
        sym = COOMatrix(
            (96, 96),
            np.concatenate([rows, cols]),
            np.concatenate([cols, rows]),
            np.concatenate([vals, vals]),
        ).deduplicate()
        res = block_eigensolver(sym, 3, max_iters=200, tol=1e-9, seed=1)
        dense_vals = np.linalg.eigvalsh(sym.to_dense().astype(np.float64))
        top = np.sort(np.abs(dense_vals))[::-1][:1]
        assert abs(res.eigenvalues[0]) == pytest.approx(top[0], rel=1e-2)
        assert res.residual < 0.15 * abs(res.eigenvalues[0])

    def test_profile_recorded(self):
        m = uniform_random(64, 64, 0.1, seed=53)
        res = block_eigensolver(m, 2, max_iters=10, seed=2)
        assert res.simulated_time_s > 0
        assert len(res.algorithms_used) >= res.iterations

    def test_validation(self):
        m = uniform_random(32, 32, 0.1, seed=54)
        with pytest.raises(ConfigError):
            block_eigensolver(m, 0)
        with pytest.raises(ConfigError):
            block_eigensolver(m, 64)
        rect = coo_from_triplets((4, 5), [(0, 0, 1.0)])
        with pytest.raises(ConfigError):
            block_eigensolver(rect, 1)
