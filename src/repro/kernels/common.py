"""Shared traffic/activity accounting used by every simulated SpMM kernel.

Design notes
------------
The kernels compute the numeric result with scipy (exact, fast) and derive
their DRAM traffic and warp activity *from the real non-zero structure*,
not closed-form density: the analytical Table 1 model then becomes a
cross-check rather than the source of truth.

Dense-operand traffic uses a two-term model per operand:

* a **compulsory** term — each useful element moves at least once;
* a **capacity** term — repeat accesses beyond the first miss in the LLC
  with probability ``1 − reuse``, where ``reuse`` is the fraction of the
  operand's working set the LLC holds (``repro.gpu.cache``'s analytic
  stand-in for full simulation, validated against the event-driven
  :class:`~repro.gpu.cache.LRUCache` in tests).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..formats.base import memoized
from ..gpu.cache import dense_reuse_fraction
from ..gpu.config import GPUConfig
from ..gpu.counters import InstructionMix, KernelResult, TrafficCounters
from ..gpu.sm import dcsr_tile_overhead, row_per_warp_activity
from ..util import MODEL_VALUE_BYTES, ceil_div
from .backends.base import canonical_csr, spmm
from .reference import check_operands

#: Shared-memory B tile edge (the paper uses 64x64 to fill a 96 KB SM).
TILE_EDGE = 64


@dataclass(frozen=True)
class DenseTraffic:
    """DRAM bytes for one dense operand, split compulsory vs capacity."""

    compulsory_bytes: float
    capacity_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.compulsory_bytes + self.capacity_bytes


#: LLC contention divisor for per-nonzero *gather* access streams.  Dozens
#: of thread blocks walk different A rows concurrently, so each one sees
#: only a slice of the LLC for its B reuse; 16 is calibrated so the CSR
#: baseline's B traffic sits between Table 1's no-cache bound (nnz x K) and
#: the perfect-reuse floor, reproducing the Fig. 16 crossover region.
GATHER_LLC_CONTENTION = 16.0


def b_operand_traffic(
    total_accesses: float,
    unique_rows: int,
    dense_cols: int,
    llc_bytes: float,
    *,
    value_bytes: int = MODEL_VALUE_BYTES,
    group_cols: int | None = None,
    contention: float = GATHER_LLC_CONTENTION,
) -> DenseTraffic:
    """Traffic for *gathering* B rows per nonzero (C-/A-stationary style).

    ``total_accesses`` counts element reads (nnz × K); ``unique_rows``
    K-wide fetches are compulsory.  Repeat accesses hit the LLC with the
    reuse fraction of the *per-column-group* working set
    (``unique_rows × group_cols`` elements — the kernel sweeps one 64-wide
    B strip at a time) against a contention-degraded LLC share: gathers
    from many concurrent thread blocks evict each other, which is exactly
    why Table 1 charges C-stationary ``A.nnz × n`` for B while B-stationary
    pays a single fetch.
    """
    if total_accesses < 0 or unique_rows < 0:
        raise ConfigError("negative access counts")
    if contention < 1.0:
        raise ConfigError("contention must be >= 1")
    g = group_cols if group_cols is not None else min(dense_cols, TILE_EDGE)
    compulsory = unique_rows * dense_cols
    if total_accesses < compulsory:
        # A kernel that prefetches whole rows may access each element once.
        compulsory = total_accesses
    working_set = unique_rows * g * value_bytes
    reuse = dense_reuse_fraction(working_set, llc_bytes / contention)
    extra = (total_accesses - compulsory) * (1.0 - reuse)
    return DenseTraffic(
        compulsory_bytes=compulsory * value_bytes,
        capacity_bytes=extra * value_bytes,
    )


def c_atomic_traffic(
    updates: float,
    unique_rows: int,
    dense_cols: int,
    llc_bytes: float,
    *,
    value_bytes: int = MODEL_VALUE_BYTES,
    cacheable: bool = True,
) -> DenseTraffic:
    """Traffic for atomically accumulating C partial sums.

    ``updates`` counts element-level read-modify-writes (each costs
    2x ``value_bytes`` at DRAM — the paper's atomic factor).  The first
    touch of each of the ``unique_rows`` K-wide rows is compulsory both
    ways; further touches hit the LLC with the reuse fraction of the
    per-column-group C working set under the same contention discipline as
    the B gathers (atomics resolve in the L2, but concurrent strips' tiles
    compete for it), and only when the traversal keeps C tiles hot
    (``cacheable``; row-major traversal does not, Section 3.1.3).
    """
    if updates < 0 or unique_rows < 0:
        raise ConfigError("negative update counts")
    first = unique_rows * dense_cols
    first = min(first, updates)
    group = min(dense_cols, TILE_EDGE)
    working_set = unique_rows * group * value_bytes
    reuse = (
        dense_reuse_fraction(working_set, llc_bytes / GATHER_LLC_CONTENTION)
        if cacheable
        else 0.0
    )
    retouch = (updates - first) * (1.0 - reuse)
    return DenseTraffic(
        compulsory_bytes=first * 2 * value_bytes,
        capacity_bytes=retouch * 2 * value_bytes,
    )


def c_single_write_bytes(
    unique_rows: int, dense_cols: int, *, value_bytes: int = MODEL_VALUE_BYTES
) -> float:
    """C-stationary's single non-atomic writeback of each non-empty row."""
    return float(unique_rows * dense_cols * value_bytes)


def n_b_column_groups(dense_cols: int, tile_edge: int = TILE_EDGE) -> int:
    """How many ``tile_edge``-wide column groups cover the dense operand;
    the sparse A is re-read once per group (Table 1's ``n/k`` factor)."""
    if dense_cols <= 0:
        raise ConfigError("dense_cols must be positive")
    return ceil_div(dense_cols, tile_edge)


def llc_bytes(config: GPUConfig) -> float:
    return config.l2_cache_kb * 1024.0


def spmm_flops(nnz: int, dense_cols: int) -> float:
    """Section 2: one multiply + one add per nonzero per dense column."""
    return 2.0 * nnz * dense_cols


# ------------------------------------------------------- kernel boilerplate
# Every simulated kernel does the same chores around its cost model:
# validate/execute the numeric product, sweep the warp-activity model once
# per B column group, assemble its Accounting, memoize it on the container,
# and pair it with the output.  The helpers below hold that boilerplate so
# a kernel body is mostly its traffic/activity model.


def compute_spmm(matrix, dense) -> np.ndarray:
    """The *compute* half of every kernel: float64 ``A @ B``.

    ``spmm(canonical_csr(matrix), dense)`` — scipy's product over the
    container's memoized canonical CSR arrays.  The accounting half
    (:func:`b_operand_traffic` and friends) never sees it.
    """
    return spmm(canonical_csr(matrix), dense)


#: Per-thread stack of active fused-result tables (see
#: :class:`fused_results`).  Each table maps ``id(dense) -> (dense, out)``;
#: the strong reference to the dense operand keeps its ``id`` from being
#: recycled while the table is live, and the identity re-check on lookup
#: makes a stale id harmless.  The stack is per thread, so a table serves
#: only the kernels of the request that installed it even when a caller
#: runs requests from several threads of one process.
_FUSED_RESULTS = threading.local()


def _fused_stack() -> list:
    stack = getattr(_FUSED_RESULTS, "stack", None)
    if stack is None:
        stack = _FUSED_RESULTS.stack = []
    return stack


class fused_results:
    """Context manager installing precomputed SpMM results for operands.

    The request-coalescing plane computes one wide-k product for a whole
    window of same-matrix requests, then replays each member request for
    its record; :func:`~repro.kernels.hybrid.run_c_stationary_best`
    computes one product and lets the CSR and DCSR kernels share it.
    Inside this context, :func:`prepare_spmm` recognizes a registered
    dense operand *by object identity* and returns its registered result
    instead of recomputing — validation and accounting still run, only
    the arithmetic is skipped.  Because CSR/DCSR SpMM computes each
    output column independently (and every container canonicalizes to
    the same CSR arrays), a correctly sliced wide result is bit-identical
    to the standalone product, so records produced under this context
    digest identically to unfused runs.

    Tables nest (inner-most wins) and are keyed per operand *object*, not
    content: a registered result is only ever handed back for the exact
    array it was registered against.
    """

    def __init__(self, pairs):
        self._table = {id(dense): (dense, out) for dense, out in pairs}

    def __enter__(self):
        _fused_stack().append(self._table)
        return self

    def __exit__(self, *exc):
        _fused_stack().pop()
        return False


def _fused_lookup(dense):
    """The registered result for ``dense``, or ``None``."""
    for table in reversed(_fused_stack()):
        held = table.get(id(dense))
        if held is not None and held[0] is dense:
            return held[1]
    return None


def prepare_spmm(matrix, dense) -> tuple[np.ndarray, int, np.ndarray]:
    """Validate operands and run the numeric product.

    Returns ``(b, k, out)``: the checked dense operand, its column count,
    and the exact numeric result the kernel will report.  Under an active
    :class:`fused_results` context a registered operand's result is
    returned without recomputing (the coalescing fast path).
    """
    out = _fused_lookup(dense)
    b = check_operands(matrix, dense)
    if out is None:
        out = compute_spmm(matrix, b)
    return b, b.shape[1], out


def unique_index_count(idx: np.ndarray, nnz: int) -> int:
    """Distinct indices touched (0 for an empty matrix/strip).

    Kernels call this through :func:`~repro.formats.base.memoized` on the
    container that owns ``idx``: the count does not depend on k, so one
    scan serves every later run over a resident container, whatever its
    dense width.
    """
    return int(np.unique(idx).size) if nnz else 0


def unique_col_count(container) -> int:
    """Distinct columns holding a stored entry, memoized on ``container``."""
    return memoized(
        container, "unique_cols",
        lambda: unique_index_count(container.col_idx, container.nnz),
    )


@dataclass(frozen=True)
class Accounting:
    """A kernel's structure-only counters: everything but the output.

    Kernels memoize this per container, keyed by k, the whole GPU config
    and their own parameters.  :meth:`result` hands out private copies,
    so callers that annotate a result (provenance, coalescing, the
    degradation ladder) never reach the memoized entry.  ``extras``
    values are scalars, so a shallow copy is a full copy.
    """

    traffic: TrafficCounters
    mix: InstructionMix
    flops: float
    algorithm: str
    extras: dict

    def result(self, out: np.ndarray) -> KernelResult:
        """The :class:`KernelResult` for output ``out``."""
        return KernelResult(
            output=out,
            traffic=replace(self.traffic),
            mix=replace(self.mix),
            flops=self.flops,
            algorithm=self.algorithm,
            extras=dict(self.extras),
        )


def grouped_row_activity(
    config: GPUConfig,
    groups: int,
    lengths: np.ndarray,
    n_empty: int,
    dense_cols: int,
    *,
    dcsr_rows: int | None = None,
    mix: InstructionMix | None = None,
) -> InstructionMix:
    """Warp activity of a row-per-warp sweep repeated per B column group.

    ``dcsr_rows`` adds the DCSR ``row_idx`` indirection overhead per group;
    pass an existing ``mix`` to accumulate (tiled kernels sum per strip).
    """
    if mix is None:
        mix = InstructionMix()
    if groups <= 0:
        return mix
    # One sweep's activity is identical across groups: compute it once and
    # accumulate it ``groups`` times (bit-identical to the per-group loop —
    # the counters are integers, so repeated addition has no rounding).
    per_group = row_per_warp_activity(
        lengths, n_empty, min(dense_cols, TILE_EDGE),
        warp_size=config.warp_size,
    )
    if dcsr_rows is not None:
        per_group.add(dcsr_tile_overhead(dcsr_rows, warp_size=config.warp_size))
    for _ in range(groups):
        mix.add(per_group)
    return mix


def traced_kernel(fn):
    """Give a simulated kernel an optional ``tracer=`` keyword.

    The wrapped kernel gains ``tracer=NULL_TRACER``; when a real tracer is
    passed, the whole kernel body runs inside a ``kernel:<algorithm>`` span
    whose attributes carry the result's headline counters (flops, DRAM
    bytes per operand).  With the default null tracer the wrapper adds one
    truthiness check — the kernel itself is untouched either way, so
    counters and outputs are bit-identical to the undecorated function.
    """

    @functools.wraps(fn)
    def wrapper(*args, tracer=None, **kwargs):
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span("kernel") as span:
            result = fn(*args, **kwargs)
            span.name = f"kernel:{result.algorithm}"
            t = result.traffic
            span.set_attributes(
                algorithm=result.algorithm,
                flops=float(result.flops),
                dram_bytes=float(t.total_bytes),
                a_bytes=float(t.a_bytes),
                b_bytes=float(t.b_bytes),
                c_bytes=float(t.c_bytes),
                atomic_bytes=float(t.atomic_bytes),
            )
            tracer.metrics.counter("kernel.executions").inc()
            tracer.metrics.counter("kernel.dram_bytes").inc(float(t.total_bytes))
            return result

    return wrapper


def kernel_accounting(
    traffic: TrafficCounters,
    mix: InstructionMix,
    nnz: int,
    dense_cols: int,
    algorithm: str,
    extras: dict,
) -> Accounting:
    """Validate and assemble the :class:`Accounting` every kernel returns."""
    traffic.validate()
    mix.validate()
    return Accounting(
        traffic=traffic,
        mix=mix,
        flops=spmm_flops(nnz, dense_cols),
        algorithm=algorithm,
        extras=extras,
    )
