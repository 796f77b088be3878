"""The software-visible conversion API (Fig. 11) and whole-matrix driver.

``GetDCSRTile`` mirrors the paper's intrinsic: a kernel asks the conversion
unit in an FB partition for the next ``DCSR_HEIGHT``-row tile of a strip,
passing the persistent ``col_frontier`` so sequential tile requests resume
where the previous one stopped.  Requests queue FIFO per unit
(:class:`ConversionUnit`) and each completed request reports the engine
work performed.

``convert_matrix_online`` is the whole-matrix convenience the kernels use:
it walks every strip through per-partition units, assembles the resulting
:class:`~repro.formats.tiled.TiledDCSR`, and returns the DRAM/crossbar byte
accounting that makes online conversion pay off (DRAM sees compact CSC,
only the crossbar sees expanded DCSR).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import EngineError, UnitFailedError
from ..formats.csc import CSCMatrix
from ..formats.dcsr import DCSRMatrix
from ..formats.tiled import TiledDCSR, n_strips as count_strips
from ..gpu.config import GPUConfig, GV100
from ..gpu.memory import strip_partition_naive
from .conversion import (
    ConversionStats,
    StreamingStripConverter,
    convert_strip,
    engine_input_bytes,
    engine_output_bytes,
)
from .pipeline import PipelineReport, conversion_time_s, pipeline_report


@dataclass
class TileRequest:
    """One ``GetDCSRTile`` call's arguments (Fig. 11).

    ``deadline_s`` and ``attempt`` support the resilience layer: a request
    that has not completed by its (relative) deadline is retried with
    backoff, ``attempt`` counting resubmissions of the same tile.  Both
    default to the fault-free fast path (no deadline, first attempt).
    """

    strip_id: int
    row_start: int
    tile_height: int = 64
    requester_sm: int = 0
    deadline_s: float | None = None
    attempt: int = 0


@dataclass
class TileResponse:
    """The streamed tile plus the per-request engine accounting."""

    request: TileRequest
    tile: DCSRMatrix
    #: engine comparator steps spent on this tile
    steps: int
    #: nnz rows / nnz returned through the API's out-params (Fig. 11)
    nnzrows: int
    nnz: int


class ConversionUnit:
    """One FB partition's conversion engine with a FIFO request queue.

    The unit keeps per-strip ``col_frontier`` state between sequential tile
    requests (the API threads it through), so walking a strip top-to-bottom
    converts each element exactly once.
    """

    def __init__(
        self,
        partition_id: int,
        csc: CSCMatrix,
        *,
        tile_width: int = 64,
        fidelity: str = "fast",
        injector=None,
    ):
        self.partition_id = partition_id
        self.csc = csc
        self.tile_width = tile_width
        #: "fast" (vectorized, the default) or "stepwise" (comparator tree)
        self.fidelity = fidelity
        #: optional :class:`~repro.resilience.faults.StripFaultInjector`;
        #: None keeps the fault-free fast path byte-identical to before.
        self.injector = injector
        self.alive = True
        self.queue: deque[TileRequest] = deque()
        self.stats = ConversionStats()
        #: strip_id -> fully-converted strip DCSR (random-access fallback)
        self._strip_cache: dict[int, DCSRMatrix] = {}
        #: strip_id -> in-flight incremental converter (sequential path)
        self._streamers: dict[int, StreamingStripConverter] = {}

    # ------------------------------------------------------------ resilience
    def fail(self) -> None:
        """Mark the unit failed: it drops its queue and rejects requests."""
        self.alive = False
        self.queue.clear()
        self._streamers.clear()

    # ----------------------------------------------------------------- queue
    def submit(self, request: TileRequest) -> None:
        """Enqueue a request (processed in arrival order, Section 4)."""
        if not self.alive:
            raise UnitFailedError(
                f"conversion unit {self.partition_id} is marked failed",
                unit_id=self.partition_id,
            )
        total = count_strips(self.csc.n_cols, self.tile_width)
        if not 0 <= request.strip_id < total:
            raise EngineError(f"strip {request.strip_id} out of range")
        if request.row_start < 0 or request.tile_height <= 0:
            raise EngineError("bad tile range")
        self.queue.append(request)

    def process_one(self) -> TileResponse:
        """Convert and return the tile for the oldest queued request.

        Sequential requests walking a strip top-to-bottom go through the
        incremental :class:`StreamingStripConverter` — the hardware path,
        each element converted exactly once, ``col_frontier`` persisting
        between calls.  A random-access request (row_start not at the
        strip's frontier) falls back to converting the whole strip once
        and slicing, matching the software-managed alternative.
        """
        if not self.alive:
            raise UnitFailedError(
                f"conversion unit {self.partition_id} is marked failed",
                unit_id=self.partition_id,
            )
        if not self.queue:
            raise EngineError("no queued requests")
        req = self.queue.popleft()
        streamer = self._streamers.get(req.strip_id)
        if streamer is None and req.strip_id not in self._strip_cache:
            streamer = self._make_streamer(req.strip_id)
            self._streamers[req.strip_id] = streamer
        if (
            streamer is not None
            and not streamer.finished
            and streamer.next_row == req.row_start
        ):
            tile = streamer.next_tile(req.tile_height)
            if streamer.finished:
                self.stats.add(streamer.stats)
                del self._streamers[req.strip_id]
            return TileResponse(
                request=req,
                tile=tile,
                steps=tile.n_nonzero_rows,
                nnzrows=tile.n_nonzero_rows,
                nnz=tile.nnz,
            )
        strip_dcsr = self._converted_strip(req.strip_id)
        row_end = min(req.row_start + req.tile_height, self.csc.n_rows)
        lo = int(np.searchsorted(strip_dcsr.row_idx, req.row_start, "left"))
        hi = int(np.searchsorted(strip_dcsr.row_idx, row_end, "left"))
        ptr_lo = int(strip_dcsr.row_ptr[lo])
        ptr_hi = int(strip_dcsr.row_ptr[hi])
        tile = DCSRMatrix(
            (row_end - req.row_start, strip_dcsr.shape[1]),
            strip_dcsr.row_idx[lo:hi] - req.row_start,
            strip_dcsr.row_ptr[lo : hi + 1] - ptr_lo,
            strip_dcsr.col_idx[ptr_lo:ptr_hi],
            strip_dcsr.values[ptr_lo:ptr_hi],
        )
        return TileResponse(
            request=req,
            tile=tile,
            steps=hi - lo,
            nnzrows=tile.n_nonzero_rows,
            nnz=tile.nnz,
        )

    def process_all(self) -> list[TileResponse]:
        out = []
        while self.queue:
            out.append(self.process_one())
        return out

    # ------------------------------------------------------------ conversion
    def _strip_arrays(self, strip_id: int):
        """Read one strip's CSC stream, applying fault injection/checks.

        With no injector this is exactly the old direct ``strip_slice``
        read; with one, stream faults corrupt the beat stream here and the
        integrity check runs at this engine boundary (raising
        :class:`~repro.errors.StreamIntegrityError` on detection).
        """
        start = strip_id * self.tile_width
        end = min(start + self.tile_width, self.csc.n_cols)
        ptr, rows, vals = self.csc.strip_slice(start, end)
        if self.injector is not None:
            ptr, rows, vals = self.injector.transform(strip_id, ptr, rows, vals)
            self.injector.verify(strip_id, ptr, rows, vals, self.csc.n_rows)
        return ptr, rows, vals

    def _make_streamer(self, strip_id: int) -> StreamingStripConverter:
        ptr, rows, vals = self._strip_arrays(strip_id)
        return StreamingStripConverter(
            ptr, rows, vals, self.csc.n_rows,
            n_lanes=self.tile_width, fidelity=self.fidelity,
        )

    def _converted_strip(self, strip_id: int) -> DCSRMatrix:
        if strip_id not in self._strip_cache:
            ptr, rows, vals = self._strip_arrays(strip_id)
            dcsr, stats = convert_strip(
                ptr, rows, vals, self.csc.n_rows, fidelity=self.fidelity
            )
            self.stats.add(stats)
            self._strip_cache[strip_id] = dcsr
        return self._strip_cache[strip_id]


@dataclass
class OnlineConversion:
    """Whole-matrix online conversion result + byte accounting."""

    tiled: TiledDCSR
    #: compact CSC bytes actually read from DRAM for one full A pass
    dram_bytes: float
    #: expanded tiled-DCSR bytes streamed over the crossbar
    xbar_bytes: float
    stats: ConversionStats
    per_partition_steps: np.ndarray
    pipeline: PipelineReport

    def stats_summary(self) -> dict:
        return {
            "steps": self.stats.steps,
            "elements": self.stats.elements,
            "refills": self.stats.refill_requests,
            "dram_bytes": self.dram_bytes,
            "xbar_bytes": self.xbar_bytes,
            "conversion_time_s": self.conversion_time_s(),
        }

    def conversion_time_s(self) -> float:
        """Wall time with engines working in parallel: the busiest
        partition's steps set the pace."""
        busiest = int(self.per_partition_steps.max()) if len(
            self.per_partition_steps
        ) else 0
        return conversion_time_s(busiest, self.pipeline)

    @property
    def expansion_factor(self) -> float:
        """Crossbar bytes over DRAM bytes (>1: the engine adds metadata)."""
        return self.xbar_bytes / self.dram_bytes if self.dram_bytes else 1.0


def convert_matrix_online(
    csc: CSCMatrix,
    *,
    tile_width: int = 64,
    config: GPUConfig = GV100,
    fidelity: str = "fast",
    tracer=None,
) -> OnlineConversion:
    """Convert every strip through its FB partition's engine.

    With a real ``tracer`` the conversion is fully attributed: one
    ``engine.convert`` span wrapping a per-strip ``engine.strip`` span
    (comparator steps, elements, refills, FB partition) plus an
    ``engine.pipeline`` span whose children are the Section 5.3 pipeline
    stages with their modeled latencies; the metrics registry accumulates
    per-strip comparator-step and idle-cycle aggregates.
    """
    from ..telemetry import NULL_TRACER
    from .pipeline import DEFAULT_STAGE_LATENCIES_NS

    tracer = NULL_TRACER if tracer is None else tracer
    total_strips = count_strips(csc.n_cols, tile_width)
    strips = []
    stats = ConversionStats()
    per_part = np.zeros(config.mem_channels, dtype=np.int64)
    dram = 0.0
    xbar = 0.0
    vbytes = int(np.dtype(csc.value_dtype).itemsize)
    with tracer.span(
        "engine.convert", n_strips=total_strips, tile_width=tile_width
    ) as conv_span:
        for sid in range(total_strips):
            start = sid * tile_width
            end = min(start + tile_width, csc.n_cols)
            part = strip_partition_naive(sid, config.mem_channels)
            with tracer.span("engine.strip") as strip_span:
                ptr, rows, vals = csc.strip_slice(start, end)
                dcsr, s = convert_strip(
                    ptr, rows, vals, csc.n_rows, fidelity=fidelity
                )
                if strip_span.enabled:
                    strip_span.set_attributes(
                        strip_id=sid,
                        partition=int(part),
                        steps=s.steps,
                        elements=s.elements,
                        refills=s.refill_requests,
                    )
                    tracer.metrics.histogram("engine.strip_steps").observe(
                        s.steps
                    )
            strips.append(dcsr)
            stats.add(s)
            per_part[part] += s.steps
            dram += engine_input_bytes(s, end - start, value_bytes=vbytes)
            xbar += engine_output_bytes(s, value_bytes=vbytes)
        report = pipeline_report(config, n_lanes=tile_width)
        if conv_span.enabled:
            # The modeled pipeline: one child span per stage, latencies as
            # attributes (these are design numbers, not wall time).
            with tracer.span(
                "engine.pipeline",
                n_stages=report.n_stages,
                cycle_time_ns=report.cycle_time_ns,
            ):
                for stage, latency_ns in DEFAULT_STAGE_LATENCIES_NS.items():
                    with tracer.span(f"engine.stage:{stage}") as st:
                        st.set_attributes(
                            latency_ns=latency_ns,
                            critical=latency_ns == report.cycle_time_ns,
                        )
            busiest = int(per_part.max()) if per_part.size else 0
            idle = float(busiest * per_part.size - int(per_part.sum()))
            conv_span.set_attributes(
                steps=stats.steps,
                elements=stats.elements,
                dram_bytes=dram,
                xbar_bytes=xbar,
            )
            tracer.metrics.counter("engine.steps").inc(stats.steps)
            tracer.metrics.counter("engine.idle_cycles").inc(idle)
            tracer.metrics.counter("engine.refill_requests").inc(
                stats.refill_requests
            )
    tiled = TiledDCSR(csc.shape, strips, tile_width)
    return OnlineConversion(
        tiled=tiled,
        dram_bytes=dram,
        xbar_bytes=xbar,
        stats=stats,
        per_partition_steps=per_part,
        pipeline=report,
    )
