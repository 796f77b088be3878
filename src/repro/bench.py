"""Regression-tracked benchmark harness (``python -m repro bench``).

Times the hot layers of the simulation — engine conversion (fast,
stepwise, streaming), offline format round-trips, CSR strip extraction,
the SpMM kernels, planner + plan-cache replay, and parallel batch
throughput — on pinned synthetic matrices, and emits a schema-versioned
JSON payload (``BENCH_<date>.json``) with machine info and per-benchmark
ops/s.

Payloads are comparable across commits: :func:`compare_payloads` checks a
current payload against a committed baseline with a configurable
regression threshold.  Because absolute ops/s varies across machines, the
comparison normalizes every benchmark by the ``calibration.matmul``
benchmark — a fixed NumPy workload whose speed tracks the host, so the
ratio is machine-relative throughput.  ``benchmarks/baselines/`` holds the
committed baseline; CI's ``bench-smoke`` job runs ``bench --quick --check``
against it (see ``docs/PERFORMANCE.md`` for the refresh workflow).
"""

from __future__ import annotations

import fnmatch
import math
import os
import platform
import time
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError
from .util import canonical_json

#: Bump when the payload layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Default committed-baseline location, relative to the repo root.
DEFAULT_BASELINE = os.path.join(
    "benchmarks", "baselines", "bench_baseline.json"
)

#: Default regression threshold: fail when a benchmark's normalized
#: throughput drops below (1 - threshold) x baseline.
DEFAULT_THRESHOLD = 0.30


def machine_info() -> dict:
    """Host facts recorded in every payload (context, not identity)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _best_wall_s(fn, reps: int) -> float:
    """Best-of-``reps`` wall time of ``fn()`` (min filters scheduler noise)."""
    best = math.inf
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def _result(wall_s: float, reps: int, ops: float, unit: str, **meta) -> dict:
    return {
        "wall_s": float(wall_s),
        "reps": int(reps),
        "ops": float(ops),
        "unit": unit,
        "ops_per_s": float(ops / wall_s) if wall_s > 0 else 0.0,
        "meta": meta,
    }


# ------------------------------------------------------------ fixed inputs
def _strip(quick: bool):
    """The harness's pinned synthetic strip (the 'medium' strip of the
    acceptance criterion in full mode).
    """
    from .formats import to_format
    from .matrices import GENERATORS

    n_rows = 256 if quick else 2048
    m = GENERATORS["uniform"](n_rows, 64, 0.08, seed=7)
    csc = to_format(m, "csc")
    ptr, rows, vals = csc.strip_slice(0, 64)
    return ptr, rows, vals, n_rows


def _matrix(quick: bool):
    from .matrices import GENERATORS

    n = 256 if quick else 1024
    return GENERATORS["uniform"](n, n, 0.02, seed=11)


def _dense_k(quick: bool) -> int:
    return 32 if quick else 64


# -------------------------------------------------------------- benchmarks
def bench_calibration(quick: bool) -> dict:
    """Fixed NumPy workload used to normalize ops/s across machines."""
    n = 192
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    wall = _best_wall_s(lambda: a @ b, reps=5)
    return _result(wall, 5, 2.0 * n**3, "flop")


def bench_conversion_stepwise(quick: bool) -> dict:
    """Hardware-faithful (comparator tree + lane frontier) conversion."""
    from .engine import convert_strip_stepwise

    ptr, rows, vals, n_rows = _strip(quick)
    reps = 3 if quick else 1
    wall = _best_wall_s(
        lambda: convert_strip_stepwise(ptr, rows, vals, n_rows), reps
    )
    return _result(wall, reps, rows.size, "elements", n_rows=n_rows)


def bench_conversion_fast(quick: bool) -> dict:
    """Fast strip conversion; verifies bit-identity and records speedup.

    The acceptance gate lives here: ``meta.speedup_vs_stepwise`` must be
    >= 5 with ``meta.bit_identical`` true on the full-size (medium) strip.
    """
    from .engine import convert_strip_fast, convert_strip_stepwise

    ptr, rows, vals, n_rows = _strip(quick)
    wall_step = _best_wall_s(
        lambda: convert_strip_stepwise(ptr, rows, vals, n_rows),
        reps=3 if quick else 1,
    )
    wall = _best_wall_s(
        lambda: convert_strip_fast(ptr, rows, vals, n_rows), reps=5
    )
    d_fast, s_fast = convert_strip_fast(ptr, rows, vals, n_rows)
    d_step, s_step = convert_strip_stepwise(ptr, rows, vals, n_rows)
    identical = (
        s_fast == s_step
        and np.array_equal(d_fast.row_idx, d_step.row_idx)
        and np.array_equal(d_fast.row_ptr, d_step.row_ptr)
        and np.array_equal(d_fast.col_idx, d_step.col_idx)
        and np.array_equal(d_fast.values, d_step.values)
    )
    return _result(
        wall, 5, rows.size, "elements",
        n_rows=n_rows,
        speedup_vs_stepwise=wall_step / wall if wall > 0 else 0.0,
        bit_identical=bool(identical),
    )


def bench_conversion_streaming(quick: bool) -> dict:
    """Tile-streaming fast conversion (the GetDCSRTile path)."""
    from .engine import StreamingStripConverter

    ptr, rows, vals, n_rows = _strip(quick)

    def run():
        StreamingStripConverter(ptr, rows, vals, n_rows).drain(64)

    wall = _best_wall_s(run, reps=3)
    return _result(wall, 3, rows.size, "elements", tile_height=64)


def bench_formats_roundtrip(quick: bool) -> dict:
    """Offline format conversions: CSC, CSR, DCSR, tiled DCSR."""
    from .formats import to_format

    m = _matrix(quick)
    stages = ("csc", "csr", "dcsr", "tiled_dcsr")

    def run():
        for target in stages:
            to_format(m, target)

    wall = _best_wall_s(run, reps=3)
    return _result(
        wall, 3, m.nnz * len(stages), "element-conversions",
        stages=list(stages),
    )


def bench_formats_strip_extract(quick: bool) -> dict:
    """Stateful CSR strip extraction across every vertical strip."""
    from .formats import to_format
    from .formats.convert import StatefulCSRExtractor
    from .formats.tiled import n_strips

    m = _matrix(quick)
    csr = to_format(m, "csr")
    total = n_strips(m.n_cols, 64)

    def run():
        extractor = StatefulCSRExtractor(csr)
        for sid in range(total):
            extractor.extract(sid, 64)

    wall = _best_wall_s(run, reps=3)
    return _result(wall, 3, m.nnz, "elements", strips=total)


def bench_kernels_csr(quick: bool) -> dict:
    """The raw CSR SpMM arithmetic over prepared operands.

    Operand preparation (the canonical CSR build) runs outside the timed
    region, so ``ops_per_s`` measures the spmm arithmetic alone.
    ``meta.bit_identical`` checks it against the independent
    :func:`~repro.kernels.reference.scipy_spmm` on the same operands.
    """
    from .kernels.backends import canonical_csr, spmm
    from .kernels.reference import random_dense_operand, scipy_spmm

    m = _matrix(quick)
    k = _dense_k(quick)
    dense = random_dense_operand(m.n_cols, k, seed=0)
    prepared = canonical_csr(m)
    reps = 3 if quick else 5
    wall = _best_wall_s(lambda: spmm(prepared, dense), reps)
    identical = np.array_equal(spmm(prepared, dense), scipy_spmm(m, dense))
    return _result(
        wall, reps, 2.0 * m.nnz * k, "flop", k=k, bit_identical=bool(identical)
    )


def bench_kernels_online(quick: bool) -> dict:
    """The online tiled-DCSR SpMM kernel end to end."""
    from .formats.convert import FormatStore
    from .gpu import get_config
    from .kernels.hybrid import run_online_tiled
    from .kernels.reference import random_dense_operand

    m = _matrix(quick)
    config = get_config("gv100")
    k = _dense_k(quick)
    dense = random_dense_operand(m.n_cols, k, seed=0)

    def run():
        run_online_tiled(m, dense, config, store=FormatStore(m))

    wall = _best_wall_s(run, reps=2)
    return _result(wall, 2, 2.0 * m.nnz * k, "flop", k=k)


def bench_planner_cache(quick: bool) -> dict:
    """Plan-cache replay rate: repeats of one request after a cold run."""
    from .gpu import get_config
    from .runtime import SpmmRequest, SpmmRuntime

    m = _matrix(quick)
    runtime = SpmmRuntime(get_config("gv100"))
    request = SpmmRequest(m, k=_dense_k(quick), seed=0)
    runtime.run(request)  # cold: plan + convert + execute
    repeats = 5 if quick else 10

    def run():
        for _ in range(repeats):
            runtime.run(request)

    wall = _best_wall_s(run, reps=2)
    return _result(
        wall, 2, repeats, "runs", cache_hits=int(runtime.cache.hits)
    )


def bench_batch_parallel(quick: bool) -> dict:
    """End-to-end batch throughput through the process-pool executor."""
    from .gpu import get_config
    from .matrices import GENERATORS
    from .runtime import ParallelExecutor, SpmmRequest, SpmmRuntime

    n = 128 if quick else 256
    k = _dense_k(quick)
    mats = [
        GENERATORS["uniform"](n, n, 0.02, seed=s) for s in range(2 if quick else 4)
    ]
    requests = [SpmmRequest(m, k=k, seed=0) for m in mats]
    # Pinned at 2 so the process-pool path is exercised (and baselines stay
    # comparable) regardless of host CPU count.
    workers = 2
    executor = ParallelExecutor(
        SpmmRuntime(get_config("gv100")), workers=workers
    )

    def run():
        executor.run_batch(requests)

    wall = _best_wall_s(run, reps=1)
    return _result(
        wall, 1, len(requests), "requests", workers=workers, n=n, k=k
    )


def bench_store_shipping(quick: bool) -> dict:
    """Operand plane: batch on one matrix, bytes shared vs bytes pickled.

    Every request reuses one matrix, so the registry ships a single
    shared-memory segment while the pre-operand-plane design would have
    pickled the matrix into every handle; ``meta`` reports both byte
    counts (``bytes_pickled_equiv`` is the avoided cost) alongside the
    batch wall time.
    """
    from .gpu import get_config
    from .matrices import GENERATORS
    from .runtime import ParallelExecutor, SpmmRequest, SpmmRuntime
    from .store import pickled_nbytes
    from .telemetry import Tracer

    n = 128 if quick else 512
    k = _dense_k(quick)
    m = GENERATORS["uniform"](n, n, 0.02, seed=13)
    requests = [SpmmRequest(m, k=k, seed=0) for _ in range(8 if quick else 32)]
    executor = ParallelExecutor(SpmmRuntime(get_config("gv100")), workers=2)
    tracer = Tracer()

    def run():
        executor.run_batch(requests, tracer=tracer)

    wall = _best_wall_s(run, reps=1)
    counters = tracer.metrics.snapshot()["counters"]
    return _result(
        wall, 1, len(requests), "requests",
        workers=2, n=n, k=k,
        bytes_shared=int(counters.get("store.bytes_shipped", 0)),
        bytes_pickled=int(counters.get("store.bytes_pickled", 0)),
        bytes_pickled_equiv=pickled_nbytes(m) * len(requests),
    )


def bench_store_warmstart(quick: bool) -> dict:
    """Persistent store: cold conversion cost vs warm-start reload cost.

    The cold pass plans, converts, and spills into a fresh store
    directory; the warm pass simulates a process restart (new runtime,
    new cache, new store instance over the same directory) and reloads
    everything with zero conversions.  ``ops_per_s`` reports warm starts;
    ``meta`` carries both phases and the speedup.
    """
    import shutil
    import tempfile

    from .gpu import get_config
    from .matrices import GENERATORS
    from .runtime import PlanCache, SpmmRequest, SpmmRuntime
    from .store import PersistentFormatStore

    n = 128 if quick else 512
    k = _dense_k(quick)
    m = GENERATORS["uniform"](n, n, 0.02, seed=13)
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        request = SpmmRequest(m, k=k, seed=0)
        runtime = SpmmRuntime(
            get_config("gv100"),
            cache=PlanCache(persist=PersistentFormatStore(root)),
        )
        t0 = time.perf_counter()
        runtime.run(request)
        cold_s = time.perf_counter() - t0

        # One warm start is a couple of milliseconds — too short to time
        # stably — so each measurement performs a batch of them.
        starts = 8
        verify = {"s": 0.0}

        def warm():
            verify["s"] = 0.0
            for _ in range(starts):
                store = PersistentFormatStore(root)
                fresh = SpmmRuntime(
                    get_config("gv100"),
                    cache=PlanCache(persist=store),
                )
                fresh.run(SpmmRequest(m, k=k, seed=0))
                # Each fresh store instance re-verifies checksums on its
                # first loads, so this is the integrity tax per restart.
                verify["s"] += store.stats["verify_s"]

        reps = 3 if quick else 5
        warm_s = _best_wall_s(warm, reps=reps)
        per_start = warm_s / starts
        return _result(
            warm_s, reps, starts, "warm_starts",
            n=n, k=k, cold_s=cold_s,
            speedup=cold_s / per_start if per_start > 0 else 0.0,
            verify_s=verify["s"],
            verify_overhead=verify["s"] / warm_s if warm_s > 0 else 0.0,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_service_coalescing(quick: bool) -> dict:
    """Request coalescing: fused wide-k window vs per-request dispatch.

    The serving-layer realization of the paper's amortization argument: a
    16-request same-matrix workload (4 distinct dense operands x 4
    repeats — the dedup path is part of the win) executed through the
    worker path once per request vs once as a single fused window.
    ``ops_per_s`` reports coalesced request throughput;
    ``meta.speedup_vs_uncoalesced`` carries the acceptance ratio (>= 2x
    on this workload).
    """
    from .gpu import get_config
    from .matrices import GENERATORS
    from .runtime import FusedPlanHandle, SpmmRequest, SpmmRuntime
    from .runtime.fusion import execute_fused_handle
    from .runtime.parallel import PlanHandle, execute_handle
    from .runtime.cache import matrix_fingerprint

    n = 512 if quick else 1024
    k = _dense_k(quick)
    m = GENERATORS["uniform"](n, n, 0.1, seed=17)
    config = get_config("gv100")
    runtime = SpmmRuntime(config)
    requests = [SpmmRequest(m, k=k, seed=s % 4) for s in range(16)]
    fingerprint = matrix_fingerprint(m)
    handles = []
    for i, r in enumerate(requests):
        plan, _, _ = runtime.plan(r)
        handles.append(PlanHandle(
            index=i, plan=plan.to_dict(), matrix=m,
            fingerprint=fingerprint, k=r.k, seed=r.seed,
            tile_width=r.tile_width, ssf_threshold=r.ssf_threshold,
        ))
    fused = FusedPlanHandle(index=len(requests), handles=tuple(handles))
    ctx = (config, False)
    # warm the worker-local memos so both phases time steady state
    execute_handle(ctx, handles[0])

    def uncoalesced():
        for handle in handles:
            execute_handle(ctx, handle)

    def coalesced():
        execute_fused_handle(ctx, fused)

    reps = 2 if quick else 3
    wall_solo = _best_wall_s(uncoalesced, reps)
    wall = _best_wall_s(coalesced, reps)
    meta_payload = execute_fused_handle(ctx, fused)["meta"]
    return _result(
        wall, reps, len(requests), "requests",
        n=n, k=k,
        fused_k=meta_payload["fused_k"],
        dedup_hits=meta_payload["dedup_hits"],
        passes_saved=meta_payload["passes_saved"],
        uncoalesced_wall_s=wall_solo,
        speedup_vs_uncoalesced=wall_solo / wall if wall > 0 else 0.0,
    )


#: name → callable(quick) — ordered as reported.
BENCHMARKS = {
    "calibration.matmul": bench_calibration,
    "conversion.stepwise_strip": bench_conversion_stepwise,
    "conversion.fast_strip": bench_conversion_fast,
    "conversion.streaming_fast": bench_conversion_streaming,
    "formats.roundtrip": bench_formats_roundtrip,
    "formats.csr_strip_extract": bench_formats_strip_extract,
    "kernels.csr_spmm": bench_kernels_csr,
    "kernels.online_spmm": bench_kernels_online,
    "planner.cache_replay": bench_planner_cache,
    "batch.parallel": bench_batch_parallel,
    "store.operand_shipping": bench_store_shipping,
    "store.warm_start": bench_store_warmstart,
    "service.coalescing": bench_service_coalescing,
}

#: The benchmark every other one is normalized by during comparisons.
CALIBRATION = "calibration.matmul"


def select_benchmarks(include: list[str] | None) -> list[str]:
    """Expand ``--only`` globs against :data:`BENCHMARKS`.

    Patterns use :mod:`fnmatch` syntax (``kernels.*``); an exact name is
    the degenerate glob.  A pattern that matches nothing is a
    :class:`~repro.errors.ConfigError`.  When filtering, the calibration
    benchmark is force-included so the partial payload stays comparable
    against a baseline (comparisons normalize by it).
    """
    if include is None:
        return list(BENCHMARKS)
    selected: set[str] = set()
    for pattern in include:
        matched = [n for n in BENCHMARKS if fnmatch.fnmatchcase(n, pattern)]
        if not matched:
            raise ConfigError(
                f"no benchmark matches {pattern!r}; "
                f"have {', '.join(BENCHMARKS)}"
            )
        selected.update(matched)
    selected.add(CALIBRATION)
    return [n for n in BENCHMARKS if n in selected]


def run_benchmarks(
    *, quick: bool = False, include: list[str] | None = None
) -> dict:
    """Execute the suite and return the schema-versioned payload.

    ``include`` filters by glob and marks the payload ``partial`` so
    comparisons skip what was not run.
    """
    names = select_benchmarks(include)
    results = {name: BENCHMARKS[name](quick) for name in names}
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": bool(quick),
        "partial": include is not None,
        "machine": machine_info(),
        "benchmarks": results,
    }


def payload_json(payload: dict) -> str:
    """Canonical JSON rendering of a payload (trailing newline included)."""
    return canonical_json(payload) + "\n"


def format_table(payload: dict) -> str:
    """Human-readable summary table of one payload."""
    lines = [f"{'benchmark':<28} {'wall s':>10} {'ops/s':>12} {'unit':>20}"]
    for name, r in payload["benchmarks"].items():
        lines.append(
            f"{name:<28} {r['wall_s']:>10.4f} {r['ops_per_s']:>12.3g} "
            f"{r['unit']:>20}"
        )
    return "\n".join(lines)


def compare_payloads(
    current: dict,
    baseline: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Compare ``current`` against ``baseline``.

    Returns ``(report_lines, regressed_names)``.  Throughput is normalized
    by each payload's calibration benchmark when both carry one, making
    the ratio machine-relative; a benchmark regresses when its normalized
    throughput falls below ``(1 - threshold)`` of the baseline's.
    """
    if threshold <= 0 or threshold >= 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if int(baseline.get("schema_version", -1)) != BENCH_SCHEMA_VERSION:
        return (
            [
                "baseline schema "
                f"v{baseline.get('schema_version')} != "
                f"v{BENCH_SCHEMA_VERSION}; comparison skipped"
            ],
            [],
        )
    cur_b = current["benchmarks"]
    base_b = baseline["benchmarks"]

    def cal(payload_benchmarks) -> float | None:
        entry = payload_benchmarks.get(CALIBRATION)
        ops = entry and entry.get("ops_per_s")
        return float(ops) if ops else None

    cur_cal, base_cal = cal(cur_b), cal(base_b)
    normalized = cur_cal is not None and base_cal is not None
    lines = [
        "normalizing by calibration benchmark"
        if normalized
        else "no calibration benchmark; comparing raw ops/s"
    ]
    partial = bool(current.get("partial"))
    regressed: list[str] = []
    for name, base in base_b.items():
        if name == CALIBRATION:
            continue
        cur = cur_b.get(name)
        if cur is None:
            if partial:
                lines.append(
                    f"  {name:<28} not in this partial run; skipped"
                )
                continue
            lines.append(f"  {name:<28} missing from current run")
            regressed.append(name)
            continue
        cur_ops, base_ops = cur["ops_per_s"], base["ops_per_s"]
        if base_ops <= 0:
            continue
        ratio = cur_ops / base_ops
        if normalized:
            ratio *= base_cal / cur_cal
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            regressed.append(name)
        lines.append(
            f"  {name:<28} {ratio:6.2f}x vs baseline  {verdict}"
        )
    return lines, regressed
