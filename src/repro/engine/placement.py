"""Strip→FB-partition data layout and the Fig. 17 load-balancing study.

FB partitions do not communicate, so all data an engine needs for one tile
must live in its partition.  Two layouts:

* **naive** — each whole strip in one partition: concurrent SMs working on
  the same strip all camp on that partition (Fig. 17, left);
* **split** — each strip cut into segments of ``x`` non-zero **tile rows**
  (64-row tiles that contain at least one non-zero), scattered round-robin
  (Fig. 17, right).  Crossing a segment boundary costs a small handoff
  record (``next_fb_ptr`` plus the 64-entry ``col_idx_frontier``), which is
  why the paper finds the overhead negligible once ``x ≥ 64`` — at that
  granularity a strip hands off only every ~4k non-empty matrix rows.

``fb_switch_overhead`` quantifies the handoff bytes relative to the useful
strip bytes; ``placement_loads`` produces the per-partition byte loads a
:class:`~repro.gpu.memory.MemorySystem` turns into service times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..formats.tiled import DEFAULT_TILE_HEIGHT, TiledDCSR
from ..gpu.config import GPUConfig
from ..gpu.memory import MemorySystem
from ..util import ceil_div

#: handoff record: next_fb_ptr (8 B) + 64-entry col_idx_frontier (4 B each)
SWITCH_RECORD_BYTES = 8 + 64 * 4


def _nonzero_tile_rows(strip, tile_height: int) -> int:
    """Number of ``tile_height``-row tiles of the strip holding >=1 nnz."""
    if strip.n_nonzero_rows == 0:
        return 0
    return int(np.unique(strip.row_idx // tile_height).size)


@dataclass(frozen=True)
class PlacementResult:
    """Per-partition load and overhead of one layout choice."""

    layout: str
    loads_bytes: np.ndarray
    overhead_bytes: float

    @property
    def total_bytes(self) -> float:
        return float(self.loads_bytes.sum()) + self.overhead_bytes

    @property
    def imbalance(self) -> float:
        mean = self.loads_bytes.mean()
        return float(self.loads_bytes.max() / mean) if mean > 0 else 1.0


def placement_loads(
    tiled: TiledDCSR,
    config: GPUConfig,
    *,
    layout: str = "split",
    tiles_per_segment: int = 64,
    tile_height: int = DEFAULT_TILE_HEIGHT,
) -> PlacementResult:
    """Distribute each strip's bytes across partitions under a layout.

    ``tiles_per_segment`` is Fig. 17's ``x``: non-zero tile rows stored per
    partition before handing off (split layout only).
    """
    p = config.mem_channels
    loads = np.zeros(p, dtype=np.float64)
    overhead = 0.0
    if layout == "naive":
        for sid, strip in enumerate(tiled.strips):
            loads[sid % p] += strip.footprint_bytes()
    elif layout == "split":
        if tiles_per_segment <= 0:
            raise ConfigError("tiles_per_segment must be positive")
        for sid, strip in enumerate(tiled.strips):
            nz_tiles = _nonzero_tile_rows(strip, tile_height)
            if nz_tiles == 0:
                continue
            n_segments = ceil_div(nz_tiles, tiles_per_segment)
            per_segment = strip.footprint_bytes() / n_segments
            for seg in range(n_segments):
                loads[(sid + seg) % p] += per_segment
            overhead += (n_segments - 1) * SWITCH_RECORD_BYTES
    else:
        raise ConfigError(f"unknown layout {layout!r}; expected naive/split")
    return PlacementResult(
        layout=layout, loads_bytes=loads, overhead_bytes=overhead
    )


def service_time_s(result: PlacementResult, config: GPUConfig) -> float:
    """Critical-path DRAM time of a placement (camping model)."""
    mem = MemorySystem(config)
    for part, b in enumerate(result.loads_bytes):
        mem.record(part, float(b))
    # Handoff records interleave (they are tiny and written once).
    if result.overhead_bytes:
        mem.record_interleaved(result.overhead_bytes)
    return mem.service_time_s()


def fb_switch_overhead(
    tiled: TiledDCSR,
    tiles_per_segment: int,
    *,
    tile_height: int = DEFAULT_TILE_HEIGHT,
) -> float:
    """Fig. 17's y-axis ingredient: handoff bytes / useful strip bytes."""
    if tiles_per_segment <= 0:
        raise ConfigError("tiles_per_segment must be positive")
    useful = float(sum(s.footprint_bytes() for s in tiled.strips))
    switches = sum(
        max(0, ceil_div(_nonzero_tile_rows(s, tile_height), tiles_per_segment) - 1)
        for s in tiled.strips
    )
    if useful == 0:
        return 0.0
    return switches * SWITCH_RECORD_BYTES / useful


def sweep_segment_sizes(
    tiled: TiledDCSR, config: GPUConfig, segment_sizes
) -> dict[int, dict]:
    """The Fig. 17 sweep: overhead + imbalance per segment size x."""
    out = {}
    naive = placement_loads(tiled, config, layout="naive")
    for x in segment_sizes:
        split = placement_loads(
            tiled, config, layout="split", tiles_per_segment=int(x)
        )
        out[int(x)] = {
            "overhead_fraction": fb_switch_overhead(tiled, int(x)),
            "imbalance": split.imbalance,
            "naive_imbalance": naive.imbalance,
            "service_time_s": service_time_s(split, config),
            "naive_service_time_s": service_time_s(naive, config),
        }
    return out
