"""Simulated SpMM kernels: numeric results + structure-derived counters."""

from .backends import PreparedOperand, canonical_csr
from .common import (
    TILE_EDGE,
    b_operand_traffic,
    c_atomic_traffic,
    c_single_write_bytes,
    compute_spmm,
    n_b_column_groups,
    spmm_flops,
)
from .csr_spmm import csr_spmm
from .dcsr_spmm import dcsr_spmm
from .hybrid import (
    SSF_TH_DEFAULT,
    VariantRun,
    hybrid_spmm,
    oracle_choice,
    run_all_variants,
    run_c_stationary_best,
    run_offline_tiled,
    run_online_tiled,
    verify_against_reference,
)
from .reference import (
    check_operands,
    random_dense_operand,
    reference_spmm,
    scipy_spmm,
)
from .tiled_spmm import a_stationary_spmm, b_stationary_spmm
from .traversal import ORDERS, TraversalEffects, traversal_effects

__all__ = [
    "PreparedOperand",
    "canonical_csr",
    "compute_spmm",
    "TILE_EDGE",
    "spmm_flops",
    "n_b_column_groups",
    "b_operand_traffic",
    "c_atomic_traffic",
    "c_single_write_bytes",
    "reference_spmm",
    "scipy_spmm",
    "check_operands",
    "random_dense_operand",
    "csr_spmm",
    "dcsr_spmm",
    "b_stationary_spmm",
    "a_stationary_spmm",
    "ORDERS",
    "TraversalEffects",
    "traversal_effects",
    "SSF_TH_DEFAULT",
    "VariantRun",
    "hybrid_spmm",
    "run_all_variants",
    "run_c_stationary_best",
    "run_online_tiled",
    "run_offline_tiled",
    "oracle_choice",
    "verify_against_reference",
]
