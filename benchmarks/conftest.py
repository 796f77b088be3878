"""Shared fixtures for the benchmark harness.

The expensive piece — simulating every algorithm variant over the whole
synthetic corpus — runs once per session (``corpus_sweep``) and feeds the
Fig. 4 / Fig. 16 benches and the SSF-sampling ablation.  It keeps only
what they read (names, SSF and per-variant times), not the variants'
dense outputs.  Scale is controlled by ``REPRO_BENCH_SCALE`` (default
2.0 → 2k-4k-row matrices; the paper uses 4k-44k, reachable by raising
the scale at proportional cost).

Every bench prints the table/figure series it regenerates, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's
evaluation artifacts in one run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import ssf
from repro.gpu import GV100
from repro.gpu.config import scaled_config
from repro.kernels import random_dense_operand, run_all_variants
from repro.matrices import corpus

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2.0"))
#: dense-operand width cap: K = min(n_cols, this); the paper uses K = n.
BENCH_K_CAP = int(os.environ.get("REPRO_BENCH_K_CAP", "2048"))
#: the paper's median matrix dimension; weak-scales the LLC to the corpus.
PAPER_MEDIAN_DIM = 20_000
#: GPU used by the corpus sweeps: GV100 with its LLC shrunk in proportion
#: to the corpus-vs-paper matrix scale (see gpu.config.scaled_config).
BENCH_GPU = scaled_config(
    GV100, max(1.0, PAPER_MEDIAN_DIM / (1024 * BENCH_SCALE))
)


@dataclass
class SweepRecord:
    """One matrix's evaluation: every variant's simulated time.

    The variants' ``KernelResult``s (each with a float64 dense output)
    and ``TimingResult``s are dropped as each matrix finishes: over the
    corpus they would hold gigabytes no bench reads.
    """

    name: str
    ssf: float
    #: variant name -> simulated seconds
    times: dict

    @property
    def t_ratio_c_over_b(self) -> float:
        """Fig. 4's y-axis: t(C-stationary) / t(B-stationary online)."""
        return self.times["c_stationary_best"] / self.times["online_tiled_dcsr"]

    def speedup(self, variant: str) -> float:
        return self.times["baseline_csr"] / self.times[variant]


def run_sweep(scale: float = BENCH_SCALE) -> list[SweepRecord]:
    """Simulate all variants over the corpus; deterministic and cached."""
    records = []
    for spec in corpus(scale=scale):
        m = spec.build()
        if m.nnz == 0:
            continue
        k = min(m.n_cols, BENCH_K_CAP)
        b = random_dense_operand(m.n_cols, k, seed=1)
        variants = run_all_variants(m, b, BENCH_GPU)
        records.append(
            SweepRecord(
                name=spec.name,
                ssf=ssf(m),
                times={k_: v.time_s for k_, v in variants.items()},
            )
        )
    return records


@pytest.fixture(scope="session")
def corpus_sweep() -> list[SweepRecord]:
    return run_sweep()


@pytest.fixture(scope="session")
def medium_matrix():
    """A representative mid-size, high-SSF matrix for micro-benchmarks."""
    from repro.matrices import block_diagonal

    return block_diagonal(2048, 2048, 0.02, block_size=64, seed=5)


@pytest.fixture(scope="session")
def medium_operand(medium_matrix):
    return random_dense_operand(medium_matrix.n_cols, 1024, seed=2)


def print_header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
