"""Programmatic regeneration of the paper's figures as plain data.

Each ``fig*`` function returns a JSON-serializable dict with the series the
corresponding paper figure plots, so downstream users can re-plot or
re-analyze without going through pytest.  The benchmark suite asserts the
*claims*; this module is the data API (also exposed as
``python -m repro figure <id>``).

All functions accept ``scale`` (matrix-size multiplier, paper ≈ 4–40) and
are deterministic for a given ``(scale, seed)``.
"""

from __future__ import annotations

import numpy as np

from .analysis import (
    classification_report,
    learn_threshold,
    normalized_entropy,
    ssf,
)
from .errors import ConfigError
from .formats import CSCMatrix, TiledCSR, TiledDCSR, to_format
from .gpu import GV100, time_kernel
from .gpu.config import scaled_config
from .kernels import random_dense_operand, run_all_variants
from .matrices import corpus, strip_density_histogram
from .util import geometric_mean

#: the paper's median matrix dimension, for LLC weak-scaling.
PAPER_MEDIAN_DIM = 20_000

FIGURE_IDS = ("fig2", "fig4", "fig5", "fig8", "fig9", "fig16")


def _sweep(scale: float, k_cap: int):
    """Every variant's modeled timing over the corpus.

    Records are ``(name, ssf, {variant: TimingResult})``: only what
    :func:`fig2`, :func:`fig4` and :func:`fig16` read.  The variants'
    dense outputs are dropped as each matrix finishes; over the corpus
    at the default scale they would hold gigabytes.
    """
    gpu = scaled_config(GV100, max(1.0, PAPER_MEDIAN_DIM / (1024 * scale)))
    records = []
    for spec in corpus(scale=scale):
        m = spec.build()
        if m.nnz == 0:
            continue
        k = min(m.n_cols, k_cap)
        b = random_dense_operand(m.n_cols, k, seed=1)
        variants = run_all_variants(m, b, gpu)
        timings = {name: run.timing for name, run in variants.items()}
        records.append((spec.name, ssf(m), timings))
    return records


def fig2(scale: float = 2.0, k_cap: int = 2048) -> dict:
    """Stall-reason pie for the CSR baseline (time-weighted)."""
    mem = sm = other = 0.0
    for _, _, timings in _sweep(scale, k_cap):
        t = timings["baseline_csr"]
        sb = t.stall_breakdown()
        mem += sb.memory * t.total_s
        sm += sb.sm * t.total_s
        other += sb.other * t.total_s
    total = mem + sm + other
    return {
        "figure": "fig2",
        "memory": mem / total,
        "sm": sm / total,
        "other": other / total,
        "paper": {"memory": 0.751, "sm": 0.233, "other": 0.015},
    }


def fig4(scale: float = 2.0, k_cap: int = 2048) -> dict:
    """SSF vs t_C/t_B scatter plus the learned threshold."""
    points = []
    for name, s, timings in _sweep(scale, k_cap):
        points.append(
            {
                "name": name,
                "ssf": s,
                "t_ratio": timings["c_stationary_best"].total_s
                / timings["online_tiled_dcsr"].total_s,
            }
        )
    s = np.array([p["ssf"] for p in points])
    r = np.array([p["t_ratio"] for p in points])
    fit = learn_threshold(s, r)
    return {
        "figure": "fig4",
        "points": points,
        "threshold": fit.threshold,
        "accuracy": fit.accuracy,
        "quadrants": classification_report(s, r, fit),
        "paper": {"accuracy": 0.93},
    }


def fig5(scale: float = 2.0, tile_width: int = 64) -> dict:
    """Histogram of strip non-zero-row density over the corpus."""
    bins = np.concatenate(
        [np.arange(0.0, 0.105, 0.01), [0.25, 0.5, 1.0 + 1e-9]]
    )
    counts = np.zeros(len(bins) - 1, dtype=np.int64)
    for spec in corpus(scale=scale):
        m = spec.build()
        c, _ = strip_density_histogram(m, tile_width, bins=bins)
        counts += c
    return {
        "figure": "fig5",
        "bin_edges": bins.tolist(),
        "counts": counts.tolist(),
        "tile_width": tile_width,
    }


def fig8(scale: float = 2.0) -> dict:
    """Tiled-CSR over tiled-DCSR size ratios per matrix."""
    rows = []
    for spec in corpus(scale=scale):
        m = spec.build()
        if m.nnz == 0:
            continue
        tc = to_format(m, "tiled_csr")
        td = TiledDCSR.from_tiled_csr(tc)
        rows.append(
            {
                "name": spec.name,
                "metadata_ratio": tc.metadata_bytes()
                / max(td.metadata_bytes(), 1),
                "total_ratio": tc.footprint_bytes()
                / max(td.footprint_bytes(), 1),
            }
        )
    return {"figure": "fig8", "matrices": rows}


def fig9(scale: float = 2.0) -> dict:
    """Tiled-DCSR over untiled-CSR size ratios per matrix."""
    rows = []
    for spec in corpus(scale=scale):
        m = spec.build()
        if m.nnz == 0:
            continue
        csr = to_format(m, "csr")
        td = TiledDCSR.from_csc(CSCMatrix.from_coo(m))
        rows.append(
            {
                "name": spec.name,
                "family": spec.family,
                "metadata_ratio": td.metadata_bytes()
                / max(csr.metadata_bytes(), 1),
                "total_ratio": td.footprint_bytes()
                / max(csr.footprint_bytes(), 1),
            }
        )
    mean_total = float(
        np.mean([r["total_ratio"] for r in rows if r["family"] != "tall_skinny"])
    )
    return {
        "figure": "fig9",
        "matrices": rows,
        "mean_total_ratio": mean_total,
        "paper": {"mean_total_ratio": "1.3-1.4"},
    }


def fig16(scale: float = 2.0, k_cap: int = 2048) -> dict:
    """Speedup-vs-SSF scatter and the headline aggregate series."""
    records = _sweep(scale, k_cap)
    s = np.array([sv for _, sv, _ in records])
    ratios = np.array(
        [
            t["c_stationary_best"].total_s / t["online_tiled_dcsr"].total_s
            for _, _, t in records
        ]
    )
    fit = learn_threshold(s, ratios)

    points, hybrid, blind, cbest, offline, oracle = [], [], [], [], [], []
    for (name, _, t), sv in zip(records, s):
        base = t["baseline_csr"].total_s
        sp = {variant: base / timing.total_s for variant, timing in t.items()}
        arm = "online_tiled_dcsr" if sv > fit.threshold else "c_stationary_best"
        off_arm = (
            "offline_tiled_dcsr" if sv > fit.threshold else "c_stationary_best"
        )
        hybrid.append(sp[arm])
        blind.append(sp["online_tiled_dcsr"])
        cbest.append(sp["c_stationary_best"])
        offline.append(sp[off_arm])
        oracle.append(max(sp["online_tiled_dcsr"], sp["c_stationary_best"]))
        points.append({"name": name, "ssf": float(sv), **sp})
    return {
        "figure": "fig16",
        "points": points,
        "threshold": fit.threshold,
        "geomean": {
            "hybrid": geometric_mean(hybrid),
            "oracle": geometric_mean(oracle),
            "blind_all_tiling": geometric_mean(blind),
            "offline_tiled": geometric_mean(offline),
            "c_stationary_best": geometric_mean(cbest),
        },
        "fraction_not_slowed": float(np.mean(np.array(hybrid) >= 0.999)),
        "paper": {
            "hybrid": 2.26,
            "oracle": 2.30,
            "blind_all_tiling": 1.63,
            "offline_tiled": 2.03,
        },
    }


def generate(figure_id: str, **kwargs) -> dict:
    """Dispatch by figure id (``fig2``, ``fig4``, ``fig5``, ``fig8``,
    ``fig9``, ``fig16``)."""
    table = {
        "fig2": fig2,
        "fig4": fig4,
        "fig5": fig5,
        "fig8": fig8,
        "fig9": fig9,
        "fig16": fig16,
    }
    fn = table.get(figure_id.lower())
    if fn is None:
        raise ConfigError(
            f"unknown figure {figure_id!r}; available: {sorted(table)}"
        )
    return fn(**kwargs)
