"""Tiled B-stationary SpMM (and the A-stationary strawman).

B-stationary holds a 64x64 B tile in shared memory; thread blocks walk the
row tiles of one vertical A strip, accumulating C partial sums with atomic
updates (Fig. 3, middle).  The traffic model is structure-derived per strip:

* **A** — the tiled container's bytes stream once per B column group.  For
  the *online* variant the bytes actually read from DRAM are the compact
  CSC strip (the engine expands it on the fly); callers pass that stream
  size via ``a_stream_bytes`` and the expanded tiled-DCSR bytes ride the
  crossbar instead (``extras['xbar_engine_bytes']``).
* **B** — each strip's useful B rows load to shared memory once per group
  (Table 1's single fetch): only columns that carry non-zeros count.
* **C** — every non-empty row of every strip issues K atomic updates; the
  first touch of a C row is compulsory both ways, retouches from later
  strips hit the LLC under column-major traversal (Section 3.1.3).

The activity model schedules warps per strip: all rows for tiled CSR
(empty-row scans included), only ``row_idx`` rows for tiled DCSR.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..formats.base import memoized
from ..formats.tiled import TiledCSR, TiledDCSR
from ..gpu.config import GPUConfig
from ..gpu.counters import InstructionMix, KernelResult, TrafficCounters
from .common import (
    Accounting,
    b_operand_traffic,
    c_atomic_traffic,
    grouped_row_activity,
    kernel_accounting,
    llc_bytes,
    n_b_column_groups,
    prepare_spmm,
    traced_kernel,
    unique_col_count,
    unique_index_count,
)
from .traversal import traversal_effects


def _unique_rows(tiled) -> int:
    """Distinct rows holding a stored entry in any strip (memoized)."""

    def count():
        rows_all, _, _ = tiled.to_coo_arrays()
        return unique_index_count(rows_all, len(rows_all))

    return memoized(tiled, "unique_rows", count)


def _strip_profiles(tiled) -> list[dict]:
    """Per-strip structural facts the traffic/activity model needs."""
    profiles = []
    for strip in tiled.strips:
        if isinstance(tiled, TiledDCSR):
            lengths = strip.row_lengths()
            nz_rows = strip.n_nonzero_rows
        else:
            all_lengths = strip.row_lengths()
            lengths = all_lengths[all_lengths > 0]
            nz_rows = int(lengths.size)
        nz_cols = unique_col_count(strip)
        profiles.append(
            {
                "nnz": strip.nnz,
                "lengths": lengths,
                "nz_rows": nz_rows,
                "nz_cols": nz_cols,
                "bytes": strip.footprint_bytes(),
            }
        )
    return profiles


@traced_kernel
def b_stationary_spmm(
    tiled,
    dense: np.ndarray,
    config: GPUConfig,
    *,
    traversal: str = "column_major",
    a_stream_bytes: float | None = None,
    tile_height: int = 64,
) -> KernelResult:
    """Simulate tiled B-stationary SpMM over a TiledCSR/TiledDCSR container.

    ``a_stream_bytes`` overrides the DRAM bytes of the A operand for one
    full pass (the online-conversion case, where memory holds compact CSC);
    by default the tiled container's own footprint streams.
    """
    if not isinstance(tiled, (TiledCSR, TiledDCSR)):
        raise ConfigError(
            f"b_stationary_spmm needs a tiled container, got {type(tiled).__name__}"
        )
    if tile_height <= 0:
        raise ConfigError(f"tile_height must be positive, got {tile_height}")
    _, k, out = prepare_spmm(tiled, dense)
    key = ("b_stationary_spmm", k, config.cache_key(), traversal,
           a_stream_bytes, tile_height)
    accounting = memoized(
        tiled, key,
        lambda: _b_stationary_accounting(
            tiled, k, config, traversal, a_stream_bytes, tile_height
        ),
    )
    return accounting.result(out)


def _b_stationary_accounting(
    tiled, k: int, config: GPUConfig, traversal: str,
    a_stream_bytes: float | None, tile_height: int,
) -> Accounting:
    effects = traversal_effects(traversal)
    is_dcsr = isinstance(tiled, TiledDCSR)

    profiles = _strip_profiles(tiled)
    groups = n_b_column_groups(k)
    llc = llc_bytes(config)

    # ---- A traffic ---------------------------------------------------
    pass_bytes = (
        float(a_stream_bytes)
        if a_stream_bytes is not None
        else float(sum(p["bytes"] for p in profiles))
    )
    if a_stream_bytes is not None and a_stream_bytes < 0:
        raise ConfigError("a_stream_bytes must be non-negative")
    if groups > 1 and effects.a_cacheable:
        # Row-major: repeat strip reads can hit the LLC.
        from ..gpu.cache import dense_reuse_fraction

        reuse = dense_reuse_fraction(pass_bytes / max(len(profiles), 1), llc)
        a_bytes = pass_bytes * (1 + (groups - 1) * (1 - reuse))
    else:
        a_bytes = pass_bytes * groups

    # ---- B traffic: single fetch of useful rows per strip/group ------
    unique_b_rows = sum(p["nz_cols"] for p in profiles)
    b_bytes = unique_b_rows * k * 4.0

    # ---- C traffic: atomic partial sums -------------------------------
    updates = sum(p["nz_rows"] for p in profiles) * k
    c_traf = c_atomic_traffic(
        updates=updates,
        unique_rows=_unique_rows(tiled),
        dense_cols=k,
        llc_bytes=llc,
        cacheable=effects.c_cacheable,
    )

    traffic = TrafficCounters(
        a_bytes=a_bytes,
        b_bytes=b_bytes,
        c_bytes=c_traf.compulsory_bytes,
        atomic_bytes=c_traf.capacity_bytes,
    )

    # ---- warp activity -------------------------------------------------
    mix = InstructionMix()
    n_rows = tiled.n_rows
    for p in profiles:
        if p["nnz"] == 0 and is_dcsr:
            continue  # empty strip: DCSR kernel skips it entirely
        empty = 0 if is_dcsr else n_rows - p["nz_rows"]
        grouped_row_activity(
            config, groups, p["lengths"], empty, k,
            dcsr_rows=p["nz_rows"] if is_dcsr else None, mix=mix,
        )

    n_tiles = len(profiles) * max(1, -(-n_rows // tile_height))
    return kernel_accounting(
        traffic,
        mix,
        tiled.nnz,
        k,
        "tiled_dcsr_b_stationary" if is_dcsr else "tiled_csr_b_stationary",
        extras={
            # One launch per B column group; strips map to thread blocks.
            "n_kernel_launches": 1,
            "n_strip_blocks": len(profiles) * groups,
            "n_tiles": n_tiles,
            "traversal": traversal,
            "online": a_stream_bytes is not None,
            "xbar_engine_bytes": (
                float(sum(p["bytes"] for p in profiles)) * groups
                if a_stream_bytes is not None
                else 0.0
            ),
            "atomic_updates": updates,
        },
    )


@traced_kernel
def a_stationary_spmm(
    tiled, dense: np.ndarray, config: GPUConfig
) -> KernelResult:
    """The Section 3.1.1 strawman: A tiles pinned in shared memory.

    A streams once, but B is gathered per nonzero *and* C accumulates
    atomically — the worst of both worlds, kept as an executable baseline
    for the Table 1 comparison.
    """
    if not isinstance(tiled, (TiledCSR, TiledDCSR)):
        raise ConfigError(
            f"a_stationary_spmm needs a tiled container, got {type(tiled).__name__}"
        )
    _, k, out = prepare_spmm(tiled, dense)
    profiles = _strip_profiles(tiled)
    llc = llc_bytes(config)
    is_dcsr = isinstance(tiled, TiledDCSR)

    rows_all, cols_all, _ = tiled.to_coo_arrays()
    unique_b = unique_index_count(cols_all, len(cols_all))
    unique_c = unique_index_count(rows_all, len(rows_all))

    b_traf = b_operand_traffic(
        total_accesses=tiled.nnz * k,
        unique_rows=unique_b,
        dense_cols=k,
        llc_bytes=llc,
    )
    updates = sum(p["nz_rows"] for p in profiles) * k
    c_traf = c_atomic_traffic(
        updates=updates,
        unique_rows=unique_c,
        dense_cols=k,
        llc_bytes=llc,
        cacheable=True,
    )
    traffic = TrafficCounters(
        a_bytes=float(sum(p["bytes"] for p in profiles)),  # single fetch
        b_bytes=b_traf.total_bytes,
        c_bytes=c_traf.compulsory_bytes,
        atomic_bytes=c_traf.capacity_bytes,
    )
    mix = InstructionMix()
    for p in profiles:
        if p["nnz"] == 0 and is_dcsr:
            continue
        empty = 0 if is_dcsr else tiled.n_rows - p["nz_rows"]
        grouped_row_activity(
            config, n_b_column_groups(k), p["lengths"], empty, k, mix=mix
        )
    return kernel_accounting(
        traffic,
        mix,
        tiled.nnz,
        k,
        "a_stationary",
        extras={"n_kernel_launches": 1, "atomic_updates": updates},
    ).result(out)
