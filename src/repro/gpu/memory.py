"""Frame-buffer partitions and per-channel traffic accounting (Section 6.1).

The GPU's DRAM is split across independent FB partitions (HBM2 pseudo
channels on GV100).  A partition can only serve data it stores, and the
conversion engines sit one per partition, so *where strips live* decides
whether SMs camp on one partition (Fig. 17 left) or spread their requests
(Fig. 17 right).

:class:`MemorySystem` tracks bytes served per partition and converts the
resulting (possibly imbalanced) load into a service-time estimate:
``time = max_p bytes_p / channel_bw`` — a perfectly balanced system
approaches ``total / aggregate_bw``, a camped one degrades toward
``total / channel_bw``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, SimulationError
from .config import GPUConfig


class MemorySystem:
    """Per-partition byte accounting over a :class:`GPUConfig`."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.bytes_per_partition = np.zeros(config.mem_channels, dtype=np.float64)

    @property
    def n_partitions(self) -> int:
        return self.config.mem_channels

    def record(self, partition: int, n_bytes: float) -> None:
        """Account ``n_bytes`` of DRAM traffic served by ``partition``."""
        if not 0 <= partition < self.n_partitions:
            raise SimulationError(
                f"partition {partition} out of range [0, {self.n_partitions})"
            )
        if n_bytes < 0:
            raise SimulationError("negative byte count")
        self.bytes_per_partition[partition] += n_bytes

    def record_interleaved(self, n_bytes: float) -> None:
        """Account traffic that address-interleaves across all partitions
        (the dense B/C matrices use the GPU's normal interleaved layout)."""
        if n_bytes < 0:
            raise SimulationError("negative byte count")
        self.bytes_per_partition += n_bytes / self.n_partitions

    # --------------------------------------------------------------- timing
    @property
    def total_bytes(self) -> float:
        return float(self.bytes_per_partition.sum())

    @property
    def max_partition_bytes(self) -> float:
        return float(self.bytes_per_partition.max()) if self.n_partitions else 0.0

    def service_time_s(self) -> float:
        """Completion time: the most-loaded channel is the critical path."""
        bw = self.config.channel_bandwidth_gbps * 1e9
        bw *= self.config.bandwidth_efficiency
        return self.max_partition_bytes / bw

    def balanced_time_s(self) -> float:
        """Lower bound: the same bytes spread perfectly."""
        return self.total_bytes / (
            self.config.effective_bandwidth_gbps * 1e9
        )

    def imbalance(self) -> float:
        """max/mean load ratio: 1.0 = perfectly balanced, n = fully camped."""
        mean = self.total_bytes / self.n_partitions
        return self.max_partition_bytes / mean if mean > 0 else 1.0

    def reset(self) -> None:
        self.bytes_per_partition.fill(0.0)


def strip_partition_naive(strip_id: int, n_partitions: int) -> int:
    """Fig. 17 (left): whole strip ``s`` lives in partition ``s mod P``."""
    if n_partitions <= 0:
        raise ConfigError("n_partitions must be positive")
    return strip_id % n_partitions


def tile_partition_split(
    strip_id: int, tile_row: int, n_partitions: int
) -> int:
    """Fig. 17 (right): tiles of a strip round-robin across partitions,
    with a per-strip rotation so concurrent SMs on different strips start
    on different partitions."""
    if n_partitions <= 0:
        raise ConfigError("n_partitions must be positive")
    return (strip_id + tile_row) % n_partitions
