"""Unit tests for the SSF-routed hybrid system and traversal helpers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu import GV100
from repro.kernels import (
    hybrid_spmm,
    oracle_choice,
    random_dense_operand,
    run_all_variants,
    run_c_stationary_best,
    run_offline_tiled,
    run_online_tiled,
    traversal_effects,
    verify_against_reference,
)
from repro.matrices import block_diagonal, uniform_random


@pytest.fixture(scope="module")
def uniform():
    """Low-SSF case: uniform scatter — C-stationary territory."""
    return uniform_random(1024, 1024, 1e-3, seed=11)


@pytest.fixture(scope="module")
def operand_u():
    return random_dense_operand(1024, 256, seed=3)


@pytest.fixture(scope="module")
def skewed():
    """High-SSF case: dense diagonal blocks — online-tiled territory.

    Scale matters: at 2048 with 64-wide blocks every column carries
    non-zeros, so the baseline's per-nonzero B gathers thrash the contended
    LLC while B-stationary's single fetch does not.
    """
    return block_diagonal(2048, 2048, 2e-2, block_size=64, seed=11)


@pytest.fixture(scope="module")
def operand_s():
    return random_dense_operand(2048, 1024, seed=3)


@pytest.fixture(scope="module")
def skewed_variants(skewed, operand_s):
    return run_all_variants(skewed, operand_s, GV100)


class TestRouting:
    def test_uniform_routes_to_c_stationary(self, uniform, operand_u):
        run = hybrid_spmm(uniform, operand_u, GV100)
        assert run.name in ("csr", "dcsr")

    def test_skewed_routes_to_online_tiled(self, skewed, operand_s):
        run = hybrid_spmm(skewed, operand_s, GV100)
        assert run.name == "online_tiled_dcsr"

    def test_threshold_override(self, uniform, operand_u):
        run = hybrid_spmm(uniform, operand_u, GV100, ssf_threshold=0.0)
        assert run.name == "online_tiled_dcsr"

    def test_ssf_recorded(self, skewed, operand_s):
        run = hybrid_spmm(skewed, operand_s, GV100)
        assert run.result.extras["ssf"] > 0

    def test_negative_threshold_rejected(self, uniform, operand_u):
        with pytest.raises(ConfigError):
            hybrid_spmm(uniform, operand_u, GV100, ssf_threshold=-1.0)


class TestCorrectness:
    def test_hybrid_output_correct(self, uniform, operand_u):
        run = hybrid_spmm(uniform, operand_u, GV100)
        assert verify_against_reference(run, uniform, operand_u)

    def test_all_variants_correct(self, skewed, operand_s, skewed_variants):
        for name, run in skewed_variants.items():
            assert verify_against_reference(run, skewed, operand_s), name


class TestVariants:
    def test_c_best_is_min_of_csr_dcsr(self, uniform, operand_u):
        best = run_c_stationary_best(uniform, operand_u, GV100)
        assert best.name in ("csr", "dcsr")

    def test_online_reads_less_a_than_offline_for_scattered(
        self, uniform, operand_u
    ):
        """Fig. 9's storage overhead becomes DRAM traffic offline; the
        online path streams compact CSC instead."""
        online = run_online_tiled(uniform, operand_u, GV100)
        offline = run_offline_tiled(uniform, operand_u, GV100)
        assert online.result.traffic.a_bytes < offline.result.traffic.a_bytes

    def test_online_records_conversion_stats(self, skewed, operand_s):
        online = run_online_tiled(skewed, operand_s, GV100)
        conv = online.result.extras["conversion"]
        assert conv["elements"] == skewed.nnz
        assert conv["steps"] > 0

    def test_oracle_at_least_as_fast_as_hybrid(
        self, skewed, operand_s, skewed_variants
    ):
        oracle = oracle_choice(skewed_variants)
        hybrid = hybrid_spmm(skewed, operand_s, GV100)
        assert oracle.time_s <= hybrid.time_s * 1.0001

    def test_skewed_online_beats_baseline(self, skewed_variants):
        """The headline effect: high-SSF matrix gains from online tiling."""
        assert (
            skewed_variants["online_tiled_dcsr"].time_s
            < 0.7 * skewed_variants["baseline_csr"].time_s
        )

    def test_uniform_c_stationary_beats_online(self, uniform, operand_u):
        variants = run_all_variants(uniform, operand_u, GV100)
        assert (
            variants["c_stationary_best"].time_s
            <= variants["online_tiled_dcsr"].time_s
        )


class TestTraversalHelpers:
    def test_effects(self):
        col = traversal_effects("column_major")
        row = traversal_effects("row_major")
        assert col.c_cacheable and not col.a_cacheable
        assert row.a_cacheable and not row.c_cacheable

    def test_effects_unknown(self):
        with pytest.raises(ConfigError):
            traversal_effects("spiral")
