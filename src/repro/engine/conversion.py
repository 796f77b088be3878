"""Step-accurate CSC→tiled-DCSR conversion engine (Figs. 13-14).

Each engine *step* is one pass through the Fig. 13 walk-through loop:

1. every lane presents the row coordinate at its column frontier
   (exhausted lanes present ``INVALID_COORD``);
2. the comparator tree finds the minimum row and all lanes holding it;
3. one DCSR row is emitted: ``row_idx`` gets the minimum, ``row_ptr``
   advances by the lane count, the winning lanes' local column ids and
   values append to ``col_idx``/``values``;
4. the winning frontiers advance, issuing refill fetches.

So the engine spends exactly **one step per non-empty row segment** and
consumes ≥1 element per step — the throughput fact Section 5.3 sizes the
pipeline around (worst case: one element per emitted row).

Two interchangeable implementations are provided:

* :func:`convert_strip_stepwise` — drives the explicit
  :class:`~repro.engine.comparator.ComparatorTree` and
  :class:`~repro.engine.frontier.LaneState` cycle by cycle (the
  hardware-faithful model);
* :func:`convert_strip_fast` — vectorized, emitting the identical DCSR and
  the identical step/refill counts (property-tested against the stepwise
  model), used by the corpus-scale sweeps.

:func:`convert_strip` dispatches between them by ``fidelity`` — ``"fast"``
(the default everywhere) or ``"stepwise"`` (the cycle-accurate audit path).
:class:`StreamingStripConverter` takes the same flag: its fast mode sorts
the strip's triplets row-major once and slices each tile's row window out
of the sorted arrays, advancing the *same* :class:`LaneState` frontiers in
bulk so stats, refill accounting, and ``exhausted()`` behavior stay
bit-identical to the stepwise walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EngineError
from ..formats.dcsr import DCSRMatrix
from .comparator import INVALID_COORD, ComparatorTree, bitvector_to_lanes
from .frontier import LaneState

#: The two interchangeable conversion implementations: ``"fast"`` is the
#: vectorized default, ``"stepwise"`` the cycle-accurate hardware model.
FIDELITIES = ("fast", "stepwise")


def _check_fidelity(fidelity: str) -> str:
    if fidelity not in FIDELITIES:
        raise EngineError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    return fidelity


@dataclass
class ConversionStats:
    """Work performed converting one strip."""

    #: comparator-tree evaluations == DCSR rows emitted
    steps: int = 0
    #: CSC elements consumed (== nnz of the strip)
    elements: int = 0
    #: 8/12-byte element fetches issued to DRAM (initial fills + refills)
    refill_requests: int = 0
    #: DCSR rows emitted (== steps; kept separate as a cross-check)
    rows_emitted: int = 0

    def add(self, other: "ConversionStats") -> None:
        self.steps += other.steps
        self.elements += other.elements
        self.refill_requests += other.refill_requests
        self.rows_emitted += other.rows_emitted


def convert_strip_stepwise(
    col_ptr,
    row_idx,
    values,
    n_rows: int,
    *,
    n_lanes: int = 64,
) -> tuple[DCSRMatrix, ConversionStats]:
    """Hardware-faithful conversion of one CSC strip to DCSR."""
    if n_rows < 0:
        raise EngineError("n_rows must be non-negative")
    values = np.asarray(values)
    lanes = LaneState(col_ptr, row_idx, n_lanes)
    tree = ComparatorTree(n_lanes)
    out_row_idx: list[int] = []
    out_row_ptr: list[int] = [0]
    out_cols: list[int] = []
    out_vals: list[float] = []
    stats = ConversionStats()

    while True:
        coords = lanes.current_coords(row_limit=n_rows)
        min_coord, vec = tree.find_minimum(coords)
        if vec == 0:
            break
        winner_lanes = bitvector_to_lanes(vec)
        stats.steps += 1
        stats.rows_emitted += 1
        out_row_idx.append(int(min_coord))
        for lane in winner_lanes:
            idx = int(lanes.frontier_ptr[lane])
            out_cols.append(int(lane))
            out_vals.append(float(values[idx]))
            stats.elements += 1
        out_row_ptr.append(len(out_cols))
        lanes.advance(winner_lanes)

    if not lanes.exhausted():
        raise EngineError(
            f"conversion finished with {lanes.remaining()} elements unconsumed "
            "(row coordinate beyond n_rows?)"
        )
    stats.refill_requests = lanes.refill_requests
    n_cols = len(np.asarray(col_ptr)) - 1
    dcsr = DCSRMatrix(
        (n_rows, n_cols),
        np.asarray(out_row_idx, dtype=np.int64),
        np.asarray(out_row_ptr, dtype=np.int64),
        np.asarray(out_cols, dtype=np.int64),
        np.asarray(
            out_vals,
            dtype=values.dtype if values.size else np.float32,
        ),
    )
    return dcsr, stats


def convert_strip_fast(
    col_ptr,
    row_idx,
    values,
    n_rows: int,
    *,
    n_lanes: int = 64,
) -> tuple[DCSRMatrix, ConversionStats]:
    """Vectorized conversion producing identical output and counters.

    The stepwise loop emits rows in ascending row order, with each row's
    entries in ascending lane (column) order — i.e. exactly the row-major
    sort of the strip's triplets.
    """
    ptr = np.asarray(col_ptr, dtype=np.int64)
    rows = np.asarray(row_idx, dtype=np.int64)
    vals = np.asarray(values)
    n_cols = ptr.size - 1
    if n_cols > n_lanes:
        raise EngineError(
            f"strip has {n_cols} columns but engine has {n_lanes} lanes"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise EngineError("row coordinate outside [0, n_rows)")
    cols = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(ptr))
    order = np.argsort(rows * n_cols + cols, kind="stable")
    r_sorted = rows[order]
    c_sorted = cols[order]
    # Same empty-strip dtype fallback as the stepwise builder.
    v_sorted = vals[order] if vals.size else vals.astype(np.float32)
    if r_sorted.size:
        boundaries = np.concatenate(([True], r_sorted[1:] != r_sorted[:-1]))
        uniq_rows = r_sorted[boundaries]
        starts = np.flatnonzero(boundaries)
        row_ptr = np.concatenate((starts, [r_sorted.size]))
    else:
        uniq_rows = np.array([], dtype=np.int64)
        row_ptr = np.array([0], dtype=np.int64)
    dcsr = DCSRMatrix((n_rows, n_cols), uniq_rows, row_ptr, c_sorted, v_sorted)
    nnz = int(rows.size)
    n_nonempty_cols = int(np.count_nonzero(np.diff(ptr)))
    stats = ConversionStats(
        steps=int(uniq_rows.size),
        elements=nnz,
        # Initial fill per non-empty column + one refill per element that
        # still has a successor in its column.
        refill_requests=n_nonempty_cols + (nnz - n_nonempty_cols),
        rows_emitted=int(uniq_rows.size),
    )
    # LaneState also counts initial fills for *empty* lanes' columns? No —
    # it counts one per strip column; align with it.
    stats.refill_requests += n_cols - n_nonempty_cols
    return dcsr, stats


def convert_strip(
    col_ptr,
    row_idx,
    values,
    n_rows: int,
    *,
    n_lanes: int = 64,
    fidelity: str = "fast",
) -> tuple[DCSRMatrix, ConversionStats]:
    """Convert one CSC strip to DCSR at the chosen ``fidelity``.

    Both fidelities emit bit-identical tiles and :class:`ConversionStats`;
    ``"stepwise"`` additionally exercises the explicit comparator tree and
    lane-by-lane frontier walk (the hardware-faithful audit path).
    """
    if _check_fidelity(fidelity) == "stepwise":
        return convert_strip_stepwise(
            col_ptr, row_idx, values, n_rows, n_lanes=n_lanes
        )
    return convert_strip_fast(col_ptr, row_idx, values, n_rows, n_lanes=n_lanes)


class StreamingStripConverter:
    """Incremental, tile-at-a-time conversion with persistent frontiers.

    This is the streaming form of the Fig. 11 API: the caller's
    ``col_frontier`` survives between ``GetDCSRTile`` calls, so walking a
    strip top-to-bottom converts each element exactly once and each call
    emits only the rows of its ``DCSR_HEIGHT`` window.

    ``fidelity="stepwise"`` drives the explicit comparator tree and
    :class:`LaneState` cycle by cycle — the hardware-faithful model.  The
    default ``"fast"`` mode sorts the strip's triplets row-major once,
    slices each tile's row window out of the sorted arrays, and advances
    the *same* lane frontiers in bulk, so the emitted tiles, the
    :class:`ConversionStats`, the refill accounting, and
    ``lanes.exhausted()`` are all bit-identical between modes (property-
    tested in ``tests/engine/test_fidelity.py``).
    """

    def __init__(
        self,
        col_ptr,
        row_idx,
        values,
        n_rows: int,
        *,
        n_lanes: int = 64,
        fidelity: str = "fast",
    ):
        if n_rows < 0:
            raise EngineError("n_rows must be non-negative")
        self.fidelity = _check_fidelity(fidelity)
        self.n_rows = n_rows
        self._col_ptr = np.asarray(col_ptr, dtype=np.int64)
        self.n_cols = self._col_ptr.size - 1
        self.values = np.asarray(values)
        self.lanes = LaneState(col_ptr, row_idx, n_lanes)
        self.tree = ComparatorTree(n_lanes)
        self.stats = ConversionStats()
        self.next_row = 0
        #: fast mode: lazily built row-major (rows, cols, permutation)
        self._sorted: tuple | None = None
        #: fast mode: elements consumed so far == cursor into the sort
        self._cursor = 0

    def next_tile(self, tile_height: int) -> DCSRMatrix:
        """Emit the DCSR tile for rows ``[next_row, next_row+height)``.

        The returned tile's ``row_idx`` is local to the tile, as streamed
        into the SM's shared memory.
        """
        if tile_height <= 0:
            raise EngineError("tile_height must be positive")
        if self.next_row >= self.n_rows and self.n_rows > 0:
            raise EngineError("strip fully converted")
        row_start = self.next_row
        row_end = min(row_start + tile_height, self.n_rows)
        if self.fidelity == "stepwise":
            tile = self._next_tile_stepwise(row_start, row_end)
        else:
            tile = self._next_tile_fast(row_start, row_end)
        self.next_row = row_end
        if self.finished:
            self.stats.refill_requests = self.lanes.refill_requests
        return tile

    def _next_tile_stepwise(self, row_start: int, row_end: int) -> DCSRMatrix:
        out_row_idx: list[int] = []
        out_row_ptr: list[int] = [0]
        out_cols: list[int] = []
        out_vals: list[float] = []
        while True:
            coords = self.lanes.current_coords(row_limit=row_end)
            min_coord, vec = self.tree.find_minimum(coords)
            if vec == 0:
                break
            winners = bitvector_to_lanes(vec)
            self.stats.steps += 1
            self.stats.rows_emitted += 1
            out_row_idx.append(int(min_coord) - row_start)
            for lane in winners:
                idx = int(self.lanes.frontier_ptr[lane])
                out_cols.append(int(lane))
                out_vals.append(float(self.values[idx]))
                self.stats.elements += 1
            out_row_ptr.append(len(out_cols))
            self.lanes.advance(winners)
        return DCSRMatrix(
            (row_end - row_start, self.n_cols),
            np.asarray(out_row_idx, dtype=np.int64),
            np.asarray(out_row_ptr, dtype=np.int64),
            np.asarray(out_cols, dtype=np.int64),
            np.asarray(
                out_vals,
                dtype=self.values.dtype if self.values.size else np.float32,
            ),
        )

    def _ensure_sorted(self) -> tuple:
        """Row-major sort of the strip's triplets, built once per strip."""
        if self._sorted is None:
            ptr = self._col_ptr
            rows = self.lanes.row_idx[: ptr[-1]]
            cols = np.repeat(
                np.arange(self.n_cols, dtype=np.int64), np.diff(ptr)
            )
            order = np.argsort(rows * max(self.n_cols, 1) + cols, kind="stable")
            self._sorted = (rows[order], cols[order], order)
        return self._sorted

    def _next_tile_fast(self, row_start: int, row_end: int) -> DCSRMatrix:
        r_sorted, c_sorted, order = self._ensure_sorted()
        # Sequential tiles: everything below row_start is already consumed,
        # so the cursor *is* the window's lower bound in the sorted arrays.
        lo = self._cursor
        hi = int(np.searchsorted(r_sorted, row_end, side="left"))
        seg_r = r_sorted[lo:hi]
        if seg_r.size:
            bmask = np.concatenate(([True], seg_r[1:] != seg_r[:-1]))
            out_row_idx = seg_r[bmask] - row_start
            out_row_ptr = np.concatenate(
                (
                    np.flatnonzero(bmask),
                    np.asarray([seg_r.size], dtype=np.int64),
                )
            )
        else:
            out_row_idx = np.asarray([], dtype=np.int64)
            out_row_ptr = np.asarray([0], dtype=np.int64)
        out_vals = (
            self.values[order[lo:hi]]
            if self.values.size
            else np.asarray([], dtype=np.float32)
        )
        consumed = hi - lo
        self.stats.steps += int(out_row_idx.size)
        self.stats.rows_emitted += int(out_row_idx.size)
        self.stats.elements += consumed
        if consumed:
            # Advance the shared lane frontiers in bulk; a consumed element
            # refills its column unless that column just exhausted.
            per_lane = np.bincount(
                c_sorted[lo:hi], minlength=self.lanes.n_lanes
            )
            f, b = self.lanes.frontier_ptr, self.lanes.boundary_ptr
            f += per_lane
            newly_exhausted = int(np.count_nonzero((per_lane > 0) & (f >= b)))
            self.lanes.refill_requests += consumed - newly_exhausted
        self._cursor = hi
        return DCSRMatrix(
            (row_end - row_start, self.n_cols),
            out_row_idx,
            out_row_ptr,
            c_sorted[lo:hi],
            out_vals,
        )

    @property
    def finished(self) -> bool:
        return self.next_row >= self.n_rows

    def drain(self, tile_height: int) -> list[tuple[int, DCSRMatrix]]:
        """Emit every remaining tile as ``(row_start, tile)`` pairs."""
        out = []
        while not self.finished:
            start = self.next_row
            out.append((start, self.next_tile(tile_height)))
        if not self.lanes.exhausted():
            raise EngineError(
                f"{self.lanes.remaining()} elements unconsumed after drain"
            )
        return out


def engine_output_bytes(stats: ConversionStats, *, value_bytes: int = 4) -> float:
    """Bytes the engine streams to the SM per converted strip: the emitted
    tiled-DCSR payload (row_idx + row_ptr increment + col_idx + value)."""
    per_row = 2 * 4  # row_idx + row_ptr entry
    per_elem = 4 + value_bytes  # col_idx + value
    return stats.rows_emitted * per_row + stats.elements * per_elem + 4


def engine_input_bytes(stats: ConversionStats, n_cols: int, *, value_bytes: int = 4) -> float:
    """Bytes the engine reads from its FB partition: col_ptr bounds plus one
    (index, value) pair per element."""
    return (n_cols + 1) * 4 + stats.elements * (4 + value_bytes)
