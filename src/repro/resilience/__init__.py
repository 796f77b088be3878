"""Fault injection, detection, and graceful degradation for the engine model.

The paper's Section 5.3 steady-state argument ("queues stay near-empty",
every conversion unit alive, every CSC beat clean) is an assumption this
subpackage turns into a testable claim under partial failure:

faults
    Deterministic, seeded fault models — dead/stuck/slow units, bit flips
    in CSC coordinate/pointer streams, dropped tile responses — plus the
    CRC/structural integrity checks that detect them.
injectors
    Host-layer fault injectors — byte flips in live shared-memory
    operand segments, torn/truncated spill files, ``os.fsync`` failing
    with ``ENOSPC`` — driving the integrity and resource-pressure chaos
    tests (the supervisor's ``corrupt`` chaos kind calls in here).
campaign
    The campaign driver: injects a :class:`~repro.resilience.faults.FaultPlan`
    into a full online-conversion + SpMM run, recovers via retry/backoff and
    unit failover, degrades along the hybrid ladder when engine capacity
    drops, and emits a reproducible JSON resilience report
    (``python -m repro faults``).
"""

from .faults import (
    DroppedResponse,
    FaultPlan,
    StreamBitFlip,
    UnitFault,
    apply_bit_flips,
    draw_fault_plan,
    stream_crc,
    verify_stream,
)
from .campaign import CampaignConfig, CampaignReport, run_campaign
from .injectors import (
    corrupt_item_operands,
    corrupt_segment,
    failing_fsync,
    flip_byte,
    truncate_file,
)

__all__ = [
    "UnitFault",
    "StreamBitFlip",
    "DroppedResponse",
    "FaultPlan",
    "draw_fault_plan",
    "apply_bit_flips",
    "stream_crc",
    "verify_stream",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "corrupt_segment",
    "corrupt_item_operands",
    "flip_byte",
    "truncate_file",
    "failing_fsync",
]
