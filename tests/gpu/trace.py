"""Trace-driven traffic validation: exact access streams through the LLC.

The kernels' traffic counters use an *analytic* reuse model
(:func:`repro.kernels.common.b_operand_traffic`).  This module provides the
ground truth it is validated against: it materializes the actual memory
access stream a C-stationary row-per-warp SpMM issues — CSR metadata
streams, per-nonzero B-row gathers, C writebacks — and drives it through
the event-driven :class:`~repro.gpu.cache.LRUCache`, producing exact DRAM
byte counts at cache-line granularity.

This is only tractable for small matrices (the stream has ~nnz × K/line
entries), which is precisely its role: a gold model for tests, not a sweep
engine.  Address map (byte addresses, disjoint regions):

====================  =======================================
region                layout
====================  =======================================
A values/col_idx      streamed (never cached — bypasses LLC)
B dense               row-major, base ``B_BASE``, 4 B elements
C dense               row-major, base ``C_BASE``, 4 B elements
====================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.gpu.cache import LRUCache

#: Region bases keep operand address spaces disjoint in the cache.
B_BASE = 1 << 34
C_BASE = 1 << 35


@dataclass
class TraceResult:
    """Exact DRAM traffic of one traced kernel execution."""

    a_bytes: float
    b_bytes: float
    c_bytes: float
    b_accesses: int
    b_hit_rate: float

    @property
    def total_bytes(self) -> float:
        return self.a_bytes + self.b_bytes + self.c_bytes


def trace_csr_spmm(
    csr,
    dense_cols: int,
    *,
    llc_bytes: int,
    line_bytes: int = 32,
    ways: int = 16,
    group_cols: int = 64,
    interleave_rows: int = 8,
) -> TraceResult:
    """Trace a C-stationary row-per-warp CSR SpMM through an exact LLC.

    ``interleave_rows`` models concurrency: that many rows' gather streams
    interleave round-robin, the way concurrent warps' accesses mix at the
    LLC (1 = fully serialized rows, larger = more destructive mixing).
    """
    if dense_cols <= 0 or group_cols <= 0 or interleave_rows <= 0:
        raise ConfigError("trace parameters must be positive")
    cache = LRUCache(llc_bytes, line_bytes=line_bytes, ways=ways)
    value_bytes = 4

    # A streams once per column group (never resident).
    groups = -(-dense_cols // group_cols)
    a_bytes = float(csr.footprint_bytes() * groups)

    b_bytes = 0.0
    b_accesses = 0
    hits = 0
    for g in range(groups):
        g_lo = g * group_cols
        g_hi = min(g_lo + group_cols, dense_cols)
        width = g_hi - g_lo
        # Interleave row gather streams in batches (concurrent warps).
        rows = [i for i in range(csr.n_rows) if csr.row_ptr[i] < csr.row_ptr[i + 1]]
        for batch_start in range(0, len(rows), interleave_rows):
            batch = rows[batch_start : batch_start + interleave_rows]
            # Round-robin one nonzero at a time across the batch rows.
            cursors = {i: int(csr.row_ptr[i]) for i in batch}
            live = list(batch)
            while live:
                nxt = []
                for i in live:
                    j = cursors[i]
                    if j >= csr.row_ptr[i + 1]:
                        continue
                    col = int(csr.col_idx[j])
                    addr = B_BASE + (col * dense_cols + g_lo) * value_bytes
                    misses = cache.access_bytes(addr, width * value_bytes)
                    b_bytes += misses * line_bytes
                    b_accesses += width
                    if misses == 0:
                        hits += 1
                    cursors[i] = j + 1
                    if cursors[i] < csr.row_ptr[i + 1]:
                        nxt.append(i)
                live = nxt

    # C: one writeback per non-empty row per group-width slice.
    nz_rows = int(np.count_nonzero(csr.row_lengths()))
    c_bytes = float(nz_rows * dense_cols * value_bytes)

    total_gathers = sum(
        int(csr.row_ptr[i + 1] - csr.row_ptr[i]) for i in range(csr.n_rows)
    ) * groups
    return TraceResult(
        a_bytes=a_bytes,
        b_bytes=b_bytes,
        c_bytes=c_bytes,
        b_accesses=b_accesses,
        b_hit_rate=hits / max(total_gathers, 1),
    )


def trace_b_stationary(
    tiled,
    dense_cols: int,
    *,
    llc_bytes: int,
    line_bytes: int = 32,
    ways: int = 16,
) -> TraceResult:
    """Trace a tiled B-stationary SpMM: B single-fetched to shared memory,
    C atomics resolved through the LLC (exact retouch accounting)."""
    if dense_cols <= 0:
        raise ConfigError("dense_cols must be positive")
    cache = LRUCache(llc_bytes, line_bytes=line_bytes, ways=ways)
    value_bytes = 4

    a_bytes = float(sum(s.footprint_bytes() for s in tiled.strips))
    # B: each strip's useful rows load once (no cache involvement).
    b_bytes = 0.0
    for strip in tiled.strips:
        if strip.nnz:
            nz_cols = int(np.unique(strip.col_idx).size)
            b_bytes += nz_cols * dense_cols * value_bytes

    # C: per strip, each non-empty row atomically updates its K-wide row.
    c_bytes = 0.0
    for strip in tiled.strips:
        if not strip.nnz:
            continue
        if hasattr(strip, "row_idx"):
            nz_rows = strip.row_idx
        else:  # TiledCSR strip
            nz_rows = np.flatnonzero(strip.row_lengths())
        for r in nz_rows:
            addr = C_BASE + int(r) * dense_cols * value_bytes
            misses = cache.access_bytes(addr, dense_cols * value_bytes)
            # Missing lines: fill (read) + eventual writeback.
            c_bytes += misses * line_bytes * 2
    return TraceResult(
        a_bytes=a_bytes,
        b_bytes=b_bytes,
        c_bytes=c_bytes,
        b_accesses=0,
        b_hit_rate=0.0,
    )
