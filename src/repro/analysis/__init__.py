"""Analytical models: Table 1 traffic, SSF heuristic (Eqs. 1-2), roofline."""

from .roofline import (
    RooflinePoint,
    is_memory_bound,
    machine_balance,
    spmm_roofline,
)
from .sampling import SampledProfile, sampled_ssf
from .ssf import (
    ThresholdFit,
    classification_report,
    learn_threshold,
    normalized_entropy,
    ssf,
)
from .traffic import (
    ATOMIC_COST_FACTOR,
    STRATEGIES,
    TrafficEstimate,
    analytic_traffic,
    csr_size_bytes,
    preferred_strategy_analytic,
    traffic_comparison,
    uniform_nnzrow_strip,
)

__all__ = [
    "STRATEGIES",
    "ATOMIC_COST_FACTOR",
    "TrafficEstimate",
    "analytic_traffic",
    "traffic_comparison",
    "preferred_strategy_analytic",
    "csr_size_bytes",
    "uniform_nnzrow_strip",
    "normalized_entropy",
    "ssf",
    "ThresholdFit",
    "learn_threshold",
    "SampledProfile",
    "sampled_ssf",
    "classification_report",
    "RooflinePoint",
    "spmm_roofline",
    "machine_balance",
    "is_memory_bound",
]
