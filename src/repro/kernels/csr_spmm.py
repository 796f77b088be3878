"""Untiled CSR SpMM, C-stationary, row-per-warp — the cuSPARSE stand-in.

This is the baseline every speedup in Fig. 16 is normalized to: the
community-standard format (Fig. 1) with the paper's preferred C-stationary
mapping (Section 3.1.1), no tiling of A, and the B vertical strip held hot
in the LLC.

Traffic model (structure-derived):

* A — the CSR arrays stream once per 64-wide B column group;
* B — per-nonzero gathers of K-wide B rows with LLC reuse correction;
* C — each non-empty row written exactly once (no atomics).

Activity model: one warp per matrix row, *including* the empty ones — the
row-per-warp kernel must at least inspect ``row_ptr`` for every row, which
is exactly the inefficiency DCSR removes.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import memoized
from ..formats.csr import CSRMatrix
from ..gpu.config import GPUConfig
from ..gpu.counters import KernelResult, TrafficCounters
from .common import (
    Accounting,
    b_operand_traffic,
    c_single_write_bytes,
    grouped_row_activity,
    kernel_accounting,
    llc_bytes,
    n_b_column_groups,
    prepare_spmm,
    traced_kernel,
    unique_col_count,
)


@traced_kernel
def csr_spmm(
    csr: CSRMatrix, dense: np.ndarray, config: GPUConfig
) -> KernelResult:
    """Simulate the baseline CSR kernel; returns result + counters.

    Every counter below is a pure function of the nonzero structure, so
    it is memoized on ``csr`` per ``(k, config)``.
    """
    _, k, out = prepare_spmm(csr, dense)
    accounting = memoized(
        csr, ("csr_spmm", k, config.cache_key()),
        lambda: _accounting(csr, k, config),
    )
    return accounting.result(out)


def _accounting(csr: CSRMatrix, k: int, config: GPUConfig) -> Accounting:
    lengths = csr.row_lengths()
    nz_lengths = lengths[lengths > 0]
    n_empty = int(csr.n_rows - nz_lengths.size)
    unique_cols = unique_col_count(csr)

    groups = n_b_column_groups(k)
    traffic = TrafficCounters()
    traffic.a_bytes = float(csr.footprint_bytes() * groups)
    b_traf = b_operand_traffic(
        total_accesses=csr.nnz * k,
        unique_rows=unique_cols,
        dense_cols=k,
        llc_bytes=llc_bytes(config),
    )
    traffic.b_bytes = b_traf.total_bytes
    traffic.c_bytes = c_single_write_bytes(int(nz_lengths.size), k)

    # Every column group re-walks the row structure.
    mix = grouped_row_activity(config, groups, nz_lengths, n_empty, k)

    return kernel_accounting(
        traffic,
        mix,
        csr.nnz,
        k,
        "csr_c_stationary",
        extras={
            "n_kernel_launches": 1,
            "n_empty_rows_scanned": n_empty * groups,
            "unique_b_rows": unique_cols,
        },
    )
