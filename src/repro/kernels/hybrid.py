"""The paper's full system: SSF-routed hybrid SpMM (Section 5.2).

Given an input matrix, the hybrid

1. profiles it and evaluates the SSF (Eq. 2);
2. below ``SSF_th`` runs C-stationary on the better of untiled CSR / DCSR
   (the Fig. 16 orange dots);
3. above ``SSF_th`` runs B-stationary on tiled DCSR produced **online** by
   the near-memory engine from the CSC stored in memory (the blue dots) —
   DRAM sees only the compact CSC bytes, the SMs see DCSR tiles.

``run_all_variants`` also evaluates the offline alternatives (tiled CSR,
offline-converted tiled DCSR) so the Fig. 16 bench can report every series
the paper plots, and ``SSF_TH_DEFAULT`` carries a threshold learned from the
synthetic corpus sweep (re-learnable via :func:`repro.analysis.ssf.learn_threshold`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.convert import FormatStore
from ..gpu.config import GPUConfig
from ..gpu.counters import KernelResult
from ..gpu.timing import TimingResult, time_kernel
from .common import fused_results, prepare_spmm
from .csr_spmm import csr_spmm
from .dcsr_spmm import dcsr_spmm
from .tiled_spmm import b_stationary_spmm

#: Default learned threshold (see benchmarks/test_fig04_ssf_heuristic.py,
#: which re-learns it from the corpus sweep and reports the fit accuracy).
SSF_TH_DEFAULT = 2.0e4


@dataclass
class VariantRun:
    """One algorithm's simulated execution: counters + timing."""

    name: str
    result: KernelResult
    timing: TimingResult

    @property
    def time_s(self) -> float:
        return self.timing.total_s


def run_c_stationary_best(
    matrix,
    dense,
    config: GPUConfig,
    *,
    store: FormatStore | None = None,
    tracer=None,
) -> VariantRun:
    """Better of untiled CSR and untiled DCSR (the paper plots their max).

    A@B is computed once: both containers canonicalize to the same CSR
    arrays, so their products are bit-identical, and the two kernels
    compete only on the cost model over one shared output.
    """
    store = store if store is not None else FormatStore(matrix)
    csr = store.get("csr", tracer=tracer)
    dcsr = store.get("dcsr", tracer=tracer)
    b, _, out = prepare_spmm(csr, dense)
    with fused_results([(b, out)]):
        runs = [
            VariantRun(
                "csr",
                (r := csr_spmm(csr, b, config, tracer=tracer)),
                time_kernel(r, config),
            ),
            VariantRun(
                "dcsr",
                (r := dcsr_spmm(dcsr, b, config, tracer=tracer)),
                time_kernel(r, config),
            ),
        ]
    return min(runs, key=lambda v: v.time_s)


def run_online_tiled(
    matrix,
    dense,
    config: GPUConfig,
    *,
    tile_width: int = 64,
    store: FormatStore | None = None,
    tracer=None,
) -> VariantRun:
    """B-stationary on engine-converted tiled DCSR (CSC in memory)."""
    from ..engine.api import convert_matrix_online

    store = store if store is not None else FormatStore(matrix)
    key = ("online_conversion", tile_width, config.name)
    online = store.artifacts.get(key)
    if online is None:
        csc = store.get("csc", tracer=tracer)
        online = convert_matrix_online(
            csc, tile_width=tile_width, config=config, tracer=tracer
        )
        store.artifacts[key] = online
    result = b_stationary_spmm(
        online.tiled,
        dense,
        config,
        a_stream_bytes=online.dram_bytes,
        tracer=tracer,
    )
    result.extras["conversion"] = online.stats_summary()
    return VariantRun("online_tiled_dcsr", result, time_kernel(result, config))


def run_offline_tiled(
    matrix,
    dense,
    config: GPUConfig,
    *,
    tile_width: int = 64,
    densify: bool = True,
    store: FormatStore | None = None,
    tracer=None,
) -> VariantRun:
    """B-stationary on an offline-materialized tiled container.

    The paper's 2.03x series: conversion cost is *not* charged (optimistic
    for the offline approach, as the paper notes).
    """
    store = store if store is not None else FormatStore(matrix)
    target = "tiled_dcsr" if densify else "tiled_csr"
    tiled = store.get(target, tracer=tracer)
    result = b_stationary_spmm(tiled, dense, config, tracer=tracer)
    name = "offline_tiled_dcsr" if densify else "offline_tiled_csr"
    return VariantRun(name, result, time_kernel(result, config))


def hybrid_spmm(
    matrix,
    dense,
    config: GPUConfig,
    *,
    ssf_threshold: float = SSF_TH_DEFAULT,
    tile_width: int = 64,
    tracer=None,
) -> VariantRun:
    """The full system: SSF-routed choice between the two paths.

    Thin wrapper over the planner/executor runtime — the SSF decision lives
    in :class:`repro.runtime.Planner`, the kernel dispatch in
    :class:`repro.runtime.Executor`.
    """
    from ..runtime import SpmmRuntime
    from ..runtime.plan import SpmmRequest

    runtime = SpmmRuntime(config, ssf_threshold=ssf_threshold, tracer=tracer)
    request = SpmmRequest(matrix, dense=dense, tile_width=tile_width)
    return runtime.run(request).execution.run


def run_all_variants(
    matrix,
    dense,
    config: GPUConfig,
    *,
    tile_width: int = 64,
    store: FormatStore | None = None,
    tracer=None,
) -> dict[str, VariantRun]:
    """Every series Fig. 16 plots, keyed by variant name."""
    store = store if store is not None else FormatStore(matrix)
    best_c = run_c_stationary_best(
        matrix, dense, config, store=store, tracer=tracer
    )
    out = {
        "baseline_csr": VariantRun(
            "baseline_csr",
            (r := csr_spmm(store.get("csr"), dense, config, tracer=tracer)),
            time_kernel(r, config),
        ),
        "c_stationary_best": best_c,
        "online_tiled_dcsr": run_online_tiled(
            matrix, dense, config, tile_width=tile_width, store=store,
            tracer=tracer,
        ),
        "offline_tiled_dcsr": run_offline_tiled(
            matrix, dense, config, tile_width=tile_width, store=store,
            tracer=tracer,
        ),
    }
    return out


def oracle_choice(variants: dict[str, VariantRun]) -> VariantRun:
    """Perfect classifier: the faster of the two hybrid arms (2.30x row)."""
    return min(
        (variants["c_stationary_best"], variants["online_tiled_dcsr"]),
        key=lambda v: v.time_s,
    )


def verify_against_reference(run: VariantRun, matrix, dense, atol=1e-3) -> bool:
    """Check a variant's numeric output against scipy (tests use this)."""
    from .reference import scipy_spmm

    expected = scipy_spmm(matrix, dense)
    return bool(np.allclose(run.result.output, expected, atol=atol, rtol=1e-4))
