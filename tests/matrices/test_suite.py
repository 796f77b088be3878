"""Unit tests for the named corpus."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.matrices import MatrixSpec, corpus


class TestCorpus:
    def test_names_unique(self):
        specs = corpus(scale=0.25)
        names = [s.name for s in specs]
        assert len(names) == len(set(names))

    def test_deterministic_specs(self):
        a = corpus(scale=0.25)
        b = corpus(scale=0.25)
        assert [s.name for s in a] == [s.name for s in b]
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_deterministic_matrices(self):
        a = corpus(scale=0.125)[3].build()
        b = corpus(scale=0.125)[3].build()
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_covers_all_families(self):
        fams = {s.family for s in corpus(scale=0.25)}
        assert fams >= {
            "uniform",
            "powerlaw_rows",
            "powerlaw_cols",
            "banded",
            "block_diagonal",
            "clustered",
            "bipartite",
            "pruned_dnn",
            "tall_skinny",
        }

    def test_densities_covered(self):
        ds = {s.density for s in corpus(scale=0.25)}
        assert min(ds) <= 1e-4 and max(ds) >= 1e-2

    def test_scale_changes_dims(self):
        small = corpus(scale=0.25)[0]
        big = corpus(scale=0.5)[0]
        assert big.n_rows == 2 * small.n_rows

    def test_bad_scale(self):
        with pytest.raises(FormatError):
            corpus(scale=0)

    def test_no_tall(self):
        specs = corpus(scale=0.25, include_tall=False)
        assert all(s.family != "tall_skinny" for s in specs)

    def test_build_cached(self):
        spec = corpus(scale=0.125)[0]
        assert spec.build() is spec.build()

    def test_build_csr_matches_coo(self):
        spec = corpus(scale=0.125)[5]
        assert spec.build_csr().nnz == spec.build().nnz

    def test_unknown_family_rejected(self):
        spec = MatrixSpec("x", "nope", 10, 10, 0.1)
        with pytest.raises(FormatError, match="unknown generator"):
            spec.build()
