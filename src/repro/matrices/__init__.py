"""Synthetic matrix corpus (SuiteSparse substitute) and sparsity statistics."""

from .generators import (
    GENERATORS,
    banded,
    bipartite_graph,
    block_diagonal,
    clustered,
    kronecker_graph,
    powerlaw_cols,
    powerlaw_rows,
    pruned_dnn_layer,
    tall_skinny,
    uniform_random,
)
from .spec import from_spec
from .stats import (
    MatrixStats,
    matrix_stats,
    nnz_per_col,
    nnz_per_row,
    nonzero_rows_per_strip,
    row_segment_nnz,
    strip_density_histogram,
)
from .suite import MatrixSpec, corpus

__all__ = [
    "GENERATORS",
    "uniform_random",
    "powerlaw_rows",
    "powerlaw_cols",
    "banded",
    "block_diagonal",
    "clustered",
    "tall_skinny",
    "bipartite_graph",
    "pruned_dnn_layer",
    "kronecker_graph",
    "from_spec",
    "MatrixStats",
    "matrix_stats",
    "nnz_per_row",
    "nnz_per_col",
    "row_segment_nnz",
    "nonzero_rows_per_strip",
    "strip_density_histogram",
    "MatrixSpec",
    "corpus",
]
