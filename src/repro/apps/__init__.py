"""Application workloads built on the simulated SpMM system.

The blocked eigensolver, one of the paper's motivating applications,
implemented against the public API: every sparse-dense multiply goes
through the SSF-routed hybrid (:func:`repro.kernels.hybrid_spmm`), so each
run reports the numeric result *and* the simulated GPU time/algorithm
profile.
"""

from .eigensolver import EigenResult, block_eigensolver

__all__ = [
    "EigenResult",
    "block_eigensolver",
]
