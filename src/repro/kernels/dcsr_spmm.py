"""Untiled DCSR SpMM, C-stationary — the paper's low-SSF winner.

Identical dataflow to the CSR baseline, but the densified format means

* the A stream shrinks by the removed empty-row pointers (and grows by the
  ``row_idx`` vector);
* warps are scheduled only on non-empty rows — no empty-row scans at all —
  at the price of one extra warp-wide ``row_idx`` load per stored row.

The paper's Fig. 16 orange dots are ``max(csr, dcsr)``; the hybrid selector
evaluates both.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import memoized
from ..formats.dcsr import DCSRMatrix
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
def dcsr_spmm(
    dcsr: DCSRMatrix, dense: np.ndarray, config: GPUConfig
) -> KernelResult:
    """Simulate the untiled-DCSR C-stationary kernel.

    Counters are memoized on ``dcsr`` per ``(k, config)``.
    """
    _, k, out = prepare_spmm(dcsr, dense)
    accounting = memoized(
        dcsr, ("dcsr_spmm", k, config.cache_key()),
        lambda: _accounting(dcsr, k, config),
    )
    return accounting.result(out)


def _accounting(dcsr: DCSRMatrix, k: int, config: GPUConfig) -> Accounting:
    lengths = dcsr.row_lengths()
    unique_cols = unique_col_count(dcsr)

    groups = n_b_column_groups(k)
    traffic = TrafficCounters()
    traffic.a_bytes = float(dcsr.footprint_bytes() * groups)
    traffic.b_bytes = b_operand_traffic(
        total_accesses=dcsr.nnz * k,
        unique_rows=unique_cols,
        dense_cols=k,
        llc_bytes=llc_bytes(config),
    ).total_bytes
    traffic.c_bytes = c_single_write_bytes(dcsr.n_nonzero_rows, k)

    mix = grouped_row_activity(
        config, groups, lengths, 0, k, dcsr_rows=dcsr.n_nonzero_rows
    )

    return kernel_accounting(
        traffic,
        mix,
        dcsr.nnz,
        k,
        "dcsr_c_stationary",
        extras={
            "n_kernel_launches": 1,
            "n_empty_rows_scanned": 0,
            "unique_b_rows": unique_cols,
        },
    )
