"""The shared SpMM arithmetic (``repro.kernels.backends``) and what records
keep of the backend choice that preceded it.

Every kernel multiplies through :func:`~repro.kernels.common.compute_spmm`,
scipy's product over the canonical CSR arrays.  Record digests hash its
output, so it must equal the independent ``scipy_spmm`` cross-check bit
for bit, and records that still name another backend in their plan
provenance (written when numpy and numba backends existed) must keep
their digests.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.gpu import GV100
from repro.kernels import compute_spmm, random_dense_operand, scipy_spmm
from repro.matrices import GENERATORS
from repro.runtime import RunRecord, SpmmRequest, SpmmRuntime


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(min_value=2, max_value=48))
    n_cols = draw(st.integers(min_value=2, max_value=48))
    nnz = draw(st.integers(min_value=0, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    # Adversarial magnitudes: mixed signs and scales expose any path
    # that reassociates the per-row accumulation.
    vals = rng.uniform(-1e3, 1e3, size=nnz)
    return COOMatrix((n_rows, n_cols), rows, cols, vals)


class TestNumericParity:
    @given(small_matrices(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_backends_bit_identical(self, coo, k):
        """The kernels' product is scipy's float64 output bit for bit,
        duplicate coordinates included — the contract digests rely on."""
        dense = random_dense_operand(coo.n_cols, k, seed=1)
        out = compute_spmm(coo, dense)
        assert out.dtype == np.float64
        assert np.array_equal(out, scipy_spmm(coo, dense))


class TestRuntimeParity:
    def test_run_records_digest_identically(self):
        """The planner names scipy in provenance, and a record naming
        numpy or numba there (as journals written before scipy became the
        only arithmetic do) digests the same."""
        m = GENERATORS["uniform"](64, 64, 0.05, seed=9)
        record = SpmmRuntime(GV100).run(SpmmRequest(m, k=16, seed=0)).record
        assert record.plan["provenance"]["backend"] == "scipy"
        doc = json.loads(record.to_json())
        for name in ("numpy", "numba"):
            doc["plan"]["provenance"]["backend"] = name
            other = RunRecord.from_json(json.dumps(doc))
            assert other.plan["provenance"]["backend"] == name
            assert other.digest() == record.digest()
