"""Sparse-matrix format substrate: COO, CSR, CSC, DCSR, and tiled variants.

Every container validates its structural invariants on construction, reports
the *modelled* DRAM footprint the paper's traffic analysis uses (4-byte
indices, 4/8-byte values), and converts losslessly to every other format via
:mod:`repro.formats.convert`.
"""

from .base import SparseMatrix
from .convert import (
    StatefulCSRExtractor,
    csc_strip_extract,
    csc_to_csr,
    csr_to_csc,
    csr_to_dcsr,
    dcsr_to_csr,
    stateless_csr_extract,
    to_format,
)
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .dcsc import DCSCMatrix
from .dcsr import DCSRMatrix
from .ell import ELLMatrix
from .mmio import read_matrix_market, write_matrix_market
from .tiled import (
    DEFAULT_TILE_HEIGHT,
    DEFAULT_TILE_WIDTH,
    StripInfo,
    TiledCSR,
    TiledDCSR,
    n_strips,
    strip_bounds,
)

__all__ = [
    "SparseMatrix",
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "DCSRMatrix",
    "DCSCMatrix",
    "ELLMatrix",
    "TiledCSR",
    "TiledDCSR",
    "StripInfo",
    "DEFAULT_TILE_WIDTH",
    "DEFAULT_TILE_HEIGHT",
    "strip_bounds",
    "n_strips",
    "csr_to_csc",
    "csc_to_csr",
    "csr_to_dcsr",
    "dcsr_to_csr",
    "to_format",
    "stateless_csr_extract",
    "csc_strip_extract",
    "StatefulCSRExtractor",
    "read_matrix_market",
    "write_matrix_market",
]
