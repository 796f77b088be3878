"""Functional GPU substrate: configs, memory system, LLC, warps, timing."""

from .cache import CacheStats, LRUCache, dense_reuse_fraction
from .config import GV100, PRESETS, TU116, GPUConfig, get_config
from .counters import (
    InstructionMix,
    KernelResult,
    StallBreakdown,
    TrafficCounters,
)
from .memory import MemorySystem, strip_partition_naive, tile_partition_split
from .sm import (
    dcsr_tile_overhead,
    inactive_reduction,
    row_per_thread_activity,
    row_per_warp_activity,
)
from .dram import (
    DRAMChannel,
    DRAMTiming,
    effective_bandwidth,
    streaming_advantage,
)
from .timing import (
    DEFAULT_LAUNCH_OVERHEAD_S,
    DEFAULT_SM_ISSUE_EFFICIENCY,
    TimingResult,
    speedup,
    time_kernel,
)
from .xbar import CrossbarModel, XbarTraffic

__all__ = [
    "GPUConfig",
    "GV100",
    "TU116",
    "PRESETS",
    "get_config",
    "TrafficCounters",
    "InstructionMix",
    "StallBreakdown",
    "KernelResult",
    "LRUCache",
    "CacheStats",
    "dense_reuse_fraction",
    "MemorySystem",
    "strip_partition_naive",
    "tile_partition_split",
    "row_per_warp_activity",
    "row_per_thread_activity",
    "dcsr_tile_overhead",
    "inactive_reduction",
    "TimingResult",
    "time_kernel",
    "speedup",
    "DEFAULT_SM_ISSUE_EFFICIENCY",
    "DEFAULT_LAUNCH_OVERHEAD_S",
    "CrossbarModel",
    "XbarTraffic",
    "DRAMTiming",
    "DRAMChannel",
    "effective_bandwidth",
    "streaming_advantage",
]
