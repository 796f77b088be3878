"""Unit tests for the GetDCSRTile API, whole-matrix driver and placement."""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    SWITCH_RECORD_BYTES,
    ConversionUnit,
    TileRequest,
    convert_matrix_online,
    fb_switch_overhead,
    placement_loads,
    service_time_s,
    sweep_segment_sizes,
)
from repro.errors import EngineError, ConfigError
from repro.formats import CSCMatrix, TiledDCSR
from repro.gpu import GV100
from repro.matrices import uniform_random

from ..conftest import random_dense


@pytest.fixture(scope="module")
def csc():
    return CSCMatrix.from_coo(uniform_random(300, 260, 0.02, seed=3))


@pytest.fixture
def small_cfg():
    return dataclasses.replace(GV100, mem_channels=4)


class TestConversionUnit:
    def test_tile_request_matches_software_tile(self, csc):
        unit = ConversionUnit(0, csc)
        oracle = TiledDCSR.from_csc(csc, tile_width=64)
        unit.submit(TileRequest(strip_id=1, row_start=64))
        resp = unit.process_one()
        want = oracle.row_tile(1, 64, 64)
        np.testing.assert_array_equal(resp.tile.row_idx, want.row_idx)
        np.testing.assert_allclose(resp.tile.values, want.values)
        assert resp.nnz == want.nnz
        assert resp.nnzrows == want.n_nonzero_rows

    def test_fifo_order(self, csc):
        unit = ConversionUnit(0, csc)
        unit.submit(TileRequest(strip_id=0, row_start=0))
        unit.submit(TileRequest(strip_id=2, row_start=128))
        responses = unit.process_all()
        assert responses[0].request.strip_id == 0
        assert responses[1].request.strip_id == 2

    def test_walking_a_strip_covers_it(self, csc):
        unit = ConversionUnit(0, csc)
        for row_start in range(0, csc.n_rows, 64):
            unit.submit(TileRequest(strip_id=0, row_start=row_start))
        total = sum(r.nnz for r in unit.process_all())
        ptr, rows, _ = csc.strip_slice(0, 64)
        assert total == rows.size

    def test_strip_converted_once(self, csc):
        """Sequential tiles of one strip reuse the frontier state: the
        engine's per-element work is paid once per strip."""
        unit = ConversionUnit(0, csc)
        for row_start in range(0, csc.n_rows, 64):
            unit.submit(TileRequest(strip_id=0, row_start=row_start))
        unit.process_all()
        ptr, rows, _ = csc.strip_slice(0, 64)
        assert unit.stats.elements == rows.size  # not multiplied by tiles

    def test_sequential_walk_uses_streaming_path(self, csc):
        """Sequential tile requests never materialize the whole strip."""
        unit = ConversionUnit(0, csc)
        for row_start in range(0, csc.n_rows, 64):
            unit.submit(TileRequest(strip_id=0, row_start=row_start))
        unit.process_all()
        assert 0 not in unit._strip_cache  # no fallback conversion

    def test_random_access_falls_back(self, csc):
        """A mid-strip jump uses the whole-strip conversion fallback."""
        unit = ConversionUnit(0, csc)
        unit.submit(TileRequest(strip_id=0, row_start=128))
        resp = unit.process_one()
        assert 0 in unit._strip_cache
        # Content still correct.
        oracle = TiledDCSR.from_csc(csc, tile_width=64).row_tile(0, 128, 64)
        np.testing.assert_array_equal(resp.tile.row_idx, oracle.row_idx)

    def test_stepwise_unit_agrees(self, csc):
        fast = ConversionUnit(0, csc)
        slow = ConversionUnit(0, csc, fidelity="stepwise")
        req = TileRequest(strip_id=1, row_start=0)
        fast.submit(req)
        slow.submit(TileRequest(strip_id=1, row_start=0))
        a = fast.process_one().tile
        b = slow.process_one().tile
        np.testing.assert_array_equal(a.row_idx, b.row_idx)
        np.testing.assert_allclose(a.values, b.values)

    def test_bad_requests(self, csc):
        unit = ConversionUnit(0, csc)
        with pytest.raises(EngineError):
            unit.submit(TileRequest(strip_id=99, row_start=0))
        with pytest.raises(EngineError):
            unit.submit(TileRequest(strip_id=0, row_start=-1))
        with pytest.raises(EngineError):
            unit.process_one()  # empty queue


class TestOnlineConversion:
    def test_matches_offline(self, csc):
        online = convert_matrix_online(csc, config=GV100)
        offline = TiledDCSR.from_csc(csc, tile_width=64)
        np.testing.assert_allclose(online.tiled.to_dense(), offline.to_dense())

    def test_dram_bytes_near_csc_footprint(self, csc):
        online = convert_matrix_online(csc, config=GV100)
        # Engine reads col_ptr bounds + (idx,value) pairs: ~ CSC footprint.
        assert online.dram_bytes == pytest.approx(
            csc.footprint_bytes(), rel=0.05
        )

    def test_xbar_carries_expansion(self, csc):
        online = convert_matrix_online(csc, config=GV100)
        assert online.xbar_bytes > online.dram_bytes
        assert 1.0 < online.expansion_factor < 3.0

    def test_stats_totals(self, csc):
        online = convert_matrix_online(csc, config=GV100)
        assert online.stats.elements == csc.nnz
        assert online.per_partition_steps.sum() == online.stats.steps

    def test_conversion_time_positive(self, csc):
        online = convert_matrix_online(csc, config=GV100)
        assert online.conversion_time_s() > 0
        summary = online.stats_summary()
        assert summary["steps"] == online.stats.steps

    def test_stepwise_driver_agrees(self):
        csc = CSCMatrix.from_dense(random_dense((80, 70), 0.05, seed=4))
        fast = convert_matrix_online(csc, config=GV100)
        slow = convert_matrix_online(csc, config=GV100, fidelity="stepwise")
        np.testing.assert_allclose(fast.tiled.to_dense(), slow.tiled.to_dense())
        assert fast.stats.steps == slow.stats.steps


class TestPlacement:
    @pytest.fixture(scope="class")
    def tiled(self):
        # 5 strips over 4 partitions: the naive layout camps (2 strips on
        # partition 0), and tiles are plentiful enough to split.
        m = uniform_random(4096, 320, 0.01, seed=9)
        return TiledDCSR.from_csc(CSCMatrix.from_coo(m), tile_width=64)

    def test_naive_camps(self, tiled, small_cfg):
        naive = placement_loads(tiled, small_cfg, layout="naive")
        split = placement_loads(
            tiled, small_cfg, layout="split", tiles_per_segment=4
        )
        assert split.imbalance < naive.imbalance

    def test_split_overhead_counted(self, tiled, small_cfg):
        split = placement_loads(
            tiled, small_cfg, layout="split", tiles_per_segment=2
        )
        assert split.overhead_bytes > 0
        coarse = placement_loads(
            tiled, small_cfg, layout="split", tiles_per_segment=10_000
        )
        assert coarse.overhead_bytes == 0  # single segment per strip

    def test_total_bytes_conserved(self, tiled, small_cfg):
        naive = placement_loads(tiled, small_cfg, layout="naive")
        split = placement_loads(
            tiled, small_cfg, layout="split", tiles_per_segment=4
        )
        useful = sum(s.footprint_bytes() for s in tiled.strips)
        assert naive.total_bytes == pytest.approx(useful)
        assert split.total_bytes == pytest.approx(
            useful + split.overhead_bytes
        )

    def test_service_time_improves_with_split(self, tiled, small_cfg):
        naive = placement_loads(tiled, small_cfg, layout="naive")
        split = placement_loads(
            tiled, small_cfg, layout="split", tiles_per_segment=4
        )
        assert service_time_s(split, small_cfg) < service_time_s(
            naive, small_cfg
        )

    def test_fig17_claim_overhead_negligible_at_64(self, tiled):
        """Section 6.1: >= 64 nonzero tile rows per segment → negligible."""
        assert fb_switch_overhead(tiled, 64) < 0.01

    def test_overhead_grows_for_tiny_segments(self, tiled):
        assert fb_switch_overhead(tiled, 1) > fb_switch_overhead(tiled, 64)

    def test_sweep_shape(self, tiled, small_cfg):
        sweep = sweep_segment_sizes(tiled, small_cfg, [1, 16, 64, 256])
        assert set(sweep) == {1, 16, 64, 256}
        # Overhead decreases monotonically with segment size.
        ovh = [sweep[x]["overhead_fraction"] for x in (1, 16, 64, 256)]
        assert all(a >= b for a, b in zip(ovh, ovh[1:]))

    def test_empty_matrix_placement(self, small_cfg):
        from repro.formats import COOMatrix

        empty = TiledDCSR.from_csc(
            CSCMatrix.from_coo(COOMatrix((128, 128), [], [], [])),
            tile_width=64,
        )
        split = placement_loads(empty, small_cfg, layout="split")
        assert split.total_bytes >= 0
        assert fb_switch_overhead(empty, 64) == 0.0

    def test_bad_layout(self, tiled, small_cfg):
        with pytest.raises(ConfigError):
            placement_loads(tiled, small_cfg, layout="hash")

    def test_bad_segment(self, tiled, small_cfg):
        with pytest.raises(ConfigError):
            placement_loads(
                tiled, small_cfg, layout="split", tiles_per_segment=0
            )
        with pytest.raises(ConfigError):
            fb_switch_overhead(tiled, 0)
