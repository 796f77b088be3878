"""Unit tests for the sampled-SSF estimator (paper's future work)."""

import numpy as np
import pytest

from repro.analysis import sampled_ssf, ssf
from repro.errors import ConfigError
from repro.formats import COOMatrix
from repro.matrices import (
    block_diagonal,
    clustered,
    powerlaw_rows,
    uniform_random,
)


class TestEstimator:
    def test_full_sample_matches_exact(self):
        m = uniform_random(512, 512, 0.01, seed=1)
        prof = sampled_ssf(m, fraction=1.0, seed=0)
        exact = ssf(m)
        assert prof.ssf == pytest.approx(exact, rel=0.05)

    def test_full_sample_ingredients(self):
        from repro.matrices import matrix_stats

        m = clustered(512, 512, 0.02, seed=2)
        prof = sampled_ssf(m, fraction=1.0)
        s = matrix_stats(m)
        assert prof.est_nnz == pytest.approx(m.nnz)
        assert prof.est_nonzero_row_fraction == pytest.approx(
            s.n_nonzero_rows / m.n_rows
        )

    def test_nnz_estimate_unbiased(self):
        m = uniform_random(2048, 2048, 5e-3, seed=3)
        ests = [
            sampled_ssf(m, fraction=0.2, seed=s).est_nnz for s in range(10)
        ]
        assert np.mean(ests) == pytest.approx(m.nnz, rel=0.1)

    def test_ssf_order_preserved_at_small_fraction(self):
        """Sampling must preserve the ranking uniform << clustered."""
        u = uniform_random(2048, 2048, 2e-3, seed=4)
        c = block_diagonal(2048, 2048, 2e-2, block_size=64, seed=4)
        su = sampled_ssf(u, fraction=0.1, seed=1).ssf
        sc = sampled_ssf(c, fraction=0.1, seed=1).ssf
        assert sc > 5 * su

    def test_deterministic_given_seed(self):
        m = powerlaw_rows(512, 512, 5e-3, seed=5)
        a = sampled_ssf(m, fraction=0.3, seed=9).ssf
        b = sampled_ssf(m, fraction=0.3, seed=9).ssf
        assert a == b

    def test_empty_matrix(self):
        m = COOMatrix((64, 64), [], [], [])
        assert sampled_ssf(m, fraction=0.5).ssf == 0.0

    def test_bad_fraction(self):
        m = uniform_random(64, 64, 0.1, seed=6)
        with pytest.raises(ConfigError):
            sampled_ssf(m, fraction=0.0)
        with pytest.raises(ConfigError):
            sampled_ssf(m, fraction=1.5)

    def test_bad_tile_width(self):
        m = uniform_random(64, 64, 0.1, seed=6)
        with pytest.raises(ConfigError):
            sampled_ssf(m, tile_width=0)
