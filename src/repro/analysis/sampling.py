"""Sampled SSF estimation (the paper's stated future work).

Section 3.1.4: "We believe these parameters can be obtained through
sampling to minimize profiling time, but we leave it for future work."
This module does that work: it estimates every SSF ingredient from a
uniform row sample of the matrix and leaves the full scan as the oracle.

Estimation notes
----------------
* ``n_nnzrow / n`` — the sampled fraction of non-empty rows is an unbiased
  estimator directly.
* ``mean(n_nnzrow_strip / n)`` — equals the mean over strips of the
  probability that a row is non-empty *in that strip*; sampling rows
  uniformly preserves each strip's per-row Bernoulli rate, so the sampled
  sub-matrix's strip occupancy (scaled by the sample fraction) estimates
  it.
* ``A.nnz`` — sampled nnz divided by the sample fraction.
* ``H_norm`` — the *shape* term.  Naively computing Shannon entropy over
  the sampled segments is badly biased (fewer segments → lower entropy →
  ``1 − H_norm`` inflated by orders of magnitude for uniform matrices).
  Instead use the decomposition

  .. math:: 1 - H_{norm} = \\frac{\\sum_i c_i \\ln c_i}{nnz \\ln nnz}

  where ``c_i`` are the per-segment nnz counts: the numerator is a plain
  sum over segments, and row sampling keeps whole rows — hence whole
  segments — so ``(Σ_{sampled} c ln c) / fraction`` estimates it
  unbiasedly.  Uniform matrices (all ``c_i = 1``) estimate exactly 0 at
  any sample size.

The estimator is evaluated in ``benchmarks/test_ablation_ssf_sampling.py``:
classification agreement with the full-scan SSF stays high down to small
sample fractions — the paper's conjecture, confirmed in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..formats.tiled import n_strips
from ..util import rng_from


@dataclass(frozen=True)
class SampledProfile:
    """Sampled estimates of the SSF ingredients."""

    sample_fraction: float
    n_rows_sampled: int
    est_nnz: float
    est_nonzero_row_fraction: float
    est_mean_strip_fraction: float
    est_entropy: float

    @property
    def ssf(self) -> float:
        """Eq. 2 evaluated on the sampled estimates."""
        if self.est_nnz <= 0 or self.est_mean_strip_fraction <= 0:
            return 0.0
        return (
            self.est_nonzero_row_fraction
            / self.est_mean_strip_fraction
            * self.est_nnz
            * (1.0 - self.est_entropy)
        )


def sampled_ssf(
    matrix,
    *,
    fraction: float = 0.1,
    tile_width: int = 64,
    seed=0,
) -> SampledProfile:
    """Estimate the SSF from a uniform sample of the matrix's rows."""
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if tile_width <= 0:
        raise ConfigError("tile_width must be positive")
    rng = rng_from(seed)
    n = matrix.n_rows
    k = max(1, int(round(fraction * n)))
    sampled_rows = rng.choice(n, size=k, replace=False)
    row_mask = np.zeros(n, dtype=bool)
    row_mask[sampled_rows] = True
    actual_fraction = k / n

    rows, cols, _ = matrix.to_coo_arrays()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    keep = row_mask[rows]
    rows_s = rows[keep]
    cols_s = cols[keep]

    nnz_s = rows_s.size
    est_nnz = nnz_s / actual_fraction

    nz_rows_s = np.unique(rows_s).size
    est_row_frac = nz_rows_s / k

    strips = n_strips(matrix.n_cols, tile_width)
    if nnz_s:
        seg_keys = rows_s * strips + cols_s // tile_width
        _, seg_counts = np.unique(seg_keys, return_counts=True)
        # Strip occupancy: non-empty (row, strip) pairs per strip, over the
        # sampled row count.
        est_strip_frac = seg_counts.size / (strips * k)
        c = seg_counts.astype(np.float64)
        sum_clogc = float(np.sum(c * np.log(c))) / actual_fraction
        denom = est_nnz * np.log(max(est_nnz, 2.0))
        one_minus_h = sum_clogc / denom if denom > 0 else 0.0
        est_entropy = float(np.clip(1.0 - one_minus_h, 0.0, 1.0))
    else:
        est_strip_frac = 0.0
        est_entropy = 0.0

    return SampledProfile(
        sample_fraction=actual_fraction,
        n_rows_sampled=k,
        est_nnz=est_nnz,
        est_nonzero_row_fraction=est_row_frac,
        est_mean_strip_fraction=est_strip_frac,
        est_entropy=est_entropy,
    )
