"""repro — reproduction of "Near-Memory Data Transformation for Efficient
Sparse Matrix Multi-Vector Multiplication" (Fujiki et al., SC '19).

Quickstart
----------
>>> from repro import matrices, kernels, gpu
>>> a = matrices.block_diagonal(2048, 2048, 0.02, block_size=64, seed=0)
>>> b = kernels.random_dense_operand(a.n_cols, 1024, seed=1)
>>> run = kernels.hybrid_spmm(a, b, gpu.GV100)
>>> run.name, run.time_s  # doctest: +SKIP
('online_tiled_dcsr', ...)

Subpackages
-----------
formats
    COO/CSR/CSC/DCSR and tiled containers with modelled footprints.
matrices
    Synthetic SuiteSparse-substitute corpus and sparsity statistics.
analysis
    Analytical traffic model (Table 1), SSF heuristic (Eq. 2), roofline.
gpu
    Functional GPU substrate: configs, memory channels, LLC, warp activity,
    memory-bound timing.
kernels
    SpMM kernels (CSR baseline, DCSR, tiled B-/C-/A-stationary, hybrid).
engine
    Near-memory CSC→tiled-DCSR conversion engine microarchitecture model.
hw
    Area / energy models for the engine (Section 5.3).
multigpu
    Large-scale, multi-GPU SpMM partitioning (Section 6.2).
runtime
    Unified planner/executor front door: plans, plan cache, run records.
resilience
    Deterministic host-layer fault injectors for the chaos tests.
"""

__version__ = "1.0.0"

from . import (
    analysis,
    apps,
    engine,
    formats,
    gpu,
    hw,
    kernels,
    matrices,
    multigpu,
    resilience,
    runtime,
)
from .errors import (
    ConfigError,
    ConversionError,
    EngineError,
    FormatError,
    ReproError,
    SimulationError,
)

__all__ = [
    "analysis",
    "apps",
    "engine",
    "formats",
    "gpu",
    "hw",
    "kernels",
    "matrices",
    "multigpu",
    "resilience",
    "runtime",
    "ReproError",
    "FormatError",
    "ConversionError",
    "ConfigError",
    "SimulationError",
    "EngineError",
    "__version__",
]
