"""Multi-GPU / out-of-core SpMM models (Section 6.2, Fig. 18)."""

from .partition import (
    GPUWorkItem,
    MultiGPUPlan,
    partition_coverage,
    plan_multi_gpu,
)
from .streaming import StreamingEstimate, compare_a_formats, stream_strip

__all__ = [
    "GPUWorkItem",
    "MultiGPUPlan",
    "plan_multi_gpu",
    "partition_coverage",
    "StreamingEstimate",
    "stream_strip",
    "compare_a_formats",
]
