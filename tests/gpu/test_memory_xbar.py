"""Unit tests for FB-partition accounting and the crossbar model."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.gpu import (
    GV100,
    CrossbarModel,
    MemorySystem,
    strip_partition_naive,
    tile_partition_split,
)


@pytest.fixture
def small_cfg():
    return dataclasses.replace(GV100, mem_channels=4)


class TestMemorySystem:
    def test_record_and_total(self, small_cfg):
        mem = MemorySystem(small_cfg)
        mem.record(0, 100.0)
        mem.record(3, 50.0)
        assert mem.total_bytes == 150.0
        assert mem.max_partition_bytes == 100.0

    def test_interleaved_spreads(self, small_cfg):
        mem = MemorySystem(small_cfg)
        mem.record_interleaved(400.0)
        np.testing.assert_allclose(mem.bytes_per_partition, 100.0)
        assert mem.imbalance() == pytest.approx(1.0)

    def test_camping_degrades_service_time(self, small_cfg):
        camped = MemorySystem(small_cfg)
        camped.record(0, 4000.0)
        spread = MemorySystem(small_cfg)
        spread.record_interleaved(4000.0)
        assert camped.service_time_s() == pytest.approx(
            4 * spread.service_time_s()
        )

    def test_balanced_time_is_lower_bound(self, small_cfg):
        mem = MemorySystem(small_cfg)
        mem.record(0, 300.0)
        mem.record(1, 100.0)
        assert mem.balanced_time_s() <= mem.service_time_s()

    def test_imbalance_fully_camped(self, small_cfg):
        mem = MemorySystem(small_cfg)
        mem.record(2, 100.0)
        assert mem.imbalance() == pytest.approx(4.0)

    def test_bad_partition(self, small_cfg):
        mem = MemorySystem(small_cfg)
        with pytest.raises(SimulationError):
            mem.record(4, 1.0)
        with pytest.raises(SimulationError):
            mem.record(-1, 1.0)

    def test_negative_bytes(self, small_cfg):
        mem = MemorySystem(small_cfg)
        with pytest.raises(SimulationError):
            mem.record(0, -1.0)
        with pytest.raises(SimulationError):
            mem.record_interleaved(-1.0)

    def test_reset(self, small_cfg):
        mem = MemorySystem(small_cfg)
        mem.record(0, 10.0)
        mem.reset()
        assert mem.total_bytes == 0.0


class TestPlacementPolicies:
    def test_naive_camps_whole_strip(self):
        assert strip_partition_naive(5, 4) == 1
        # every tile of strip 5 would hit partition 1

    def test_split_rotates_within_strip(self):
        parts = {tile_partition_split(5, t, 4) for t in range(4)}
        assert parts == {0, 1, 2, 3}

    def test_split_offsets_by_strip(self):
        assert tile_partition_split(0, 0, 4) != tile_partition_split(1, 0, 4)

    def test_bad_partition_count(self):
        with pytest.raises(ConfigError):
            strip_partition_naive(0, 0)
        with pytest.raises(ConfigError):
            tile_partition_split(0, 0, 0)


class TestCrossbar:
    def test_expansion_factor(self):
        x = CrossbarModel(GV100)
        x.record_dram_forward(100.0)
        x.record_engine_stream(50.0)
        assert x.expansion_factor() == pytest.approx(1.5)

    def test_not_bottleneck_for_typical_expansion(self):
        """Section 7: tiled-DCSR expansion rides the Xbar headroom."""
        x = CrossbarModel(GV100)
        dram_bytes = 1e9
        x.record_dram_forward(dram_bytes)
        x.record_engine_stream(dram_bytes * 1.5)  # 2.5x total on Xbar
        dram_time = dram_bytes / (GV100.effective_bandwidth_gbps * 1e9)
        assert not x.is_bottleneck(dram_time)

    def test_extreme_expansion_is_bottleneck(self):
        x = CrossbarModel(GV100)
        x.record_dram_forward(1e9)
        x.record_engine_stream(10e9)
        dram_time = 1e9 / (GV100.effective_bandwidth_gbps * 1e9)
        assert x.is_bottleneck(dram_time)

    def test_negative_rejected(self):
        x = CrossbarModel(GV100)
        with pytest.raises(SimulationError):
            x.record_dram_forward(-1)
        with pytest.raises(SimulationError):
            x.record_engine_stream(-1)

    def test_empty_expansion(self):
        assert CrossbarModel(GV100).expansion_factor() == 1.0
