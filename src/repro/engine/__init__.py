"""Near-memory CSC→tiled-DCSR conversion engine (Section 4) — functional
microarchitecture model: comparator tree, frontier state, pipeline timing,
prefetch buffer, request API and FB-partition placement."""

from .api import (
    ConversionUnit,
    OnlineConversion,
    TileRequest,
    TileResponse,
    convert_matrix_online,
)
from .comparator import (
    INVALID_COORD,
    ComparatorStats,
    ComparatorTree,
    TwoInputComparator,
    bitvector_to_lanes,
    find_minimum_fast,
)
from .conversion import (
    FIDELITIES,
    ConversionStats,
    StreamingStripConverter,
    convert_strip,
    convert_strip_fast,
    convert_strip_stepwise,
    engine_input_bytes,
    engine_output_bytes,
)
from .frontier import LaneState
from .pipeline import (
    DEFAULT_STAGE_LATENCIES_NS,
    PipelineReport,
    conversion_hidden,
    conversion_time_s,
    pipeline_report,
)
from .placement import (
    SWITCH_RECORD_BYTES,
    PlacementResult,
    fb_switch_overhead,
    placement_loads,
    service_time_s,
    sweep_segment_sizes,
)
from .queueing import (
    QueuedRequest,
    QueueReport,
    RetryPolicy,
    simulate_fifo,
    sm_demand_interval_s,
)
from .prefetch import (
    DRAM_CL_NS,
    REQUEST_LATENCY_NS,
    PrefetchBufferSpec,
    simulate_drain,
    size_prefetch_buffer,
)

__all__ = [
    "INVALID_COORD",
    "TwoInputComparator",
    "ComparatorTree",
    "ComparatorStats",
    "find_minimum_fast",
    "bitvector_to_lanes",
    "LaneState",
    "ConversionStats",
    "FIDELITIES",
    "convert_strip",
    "convert_strip_stepwise",
    "convert_strip_fast",
    "StreamingStripConverter",
    "engine_input_bytes",
    "engine_output_bytes",
    "PipelineReport",
    "pipeline_report",
    "conversion_time_s",
    "conversion_hidden",
    "DEFAULT_STAGE_LATENCIES_NS",
    "PrefetchBufferSpec",
    "size_prefetch_buffer",
    "simulate_drain",
    "REQUEST_LATENCY_NS",
    "DRAM_CL_NS",
    "TileRequest",
    "TileResponse",
    "ConversionUnit",
    "OnlineConversion",
    "convert_matrix_online",
    "SWITCH_RECORD_BYTES",
    "PlacementResult",
    "placement_loads",
    "service_time_s",
    "fb_switch_overhead",
    "sweep_segment_sizes",
    "QueuedRequest",
    "QueueReport",
    "RetryPolicy",
    "simulate_fifo",
    "sm_demand_interval_s",
]
