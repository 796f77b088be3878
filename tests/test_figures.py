"""Unit tests for the programmatic figure-data API."""

import json

import numpy as np
import pytest

from repro import figures
from repro.errors import ConfigError

SCALE = 0.25  # tiny corpus: these tests exercise plumbing, not magnitudes


@pytest.fixture(scope="module")
def fig16_data():
    return figures.fig16(scale=SCALE, k_cap=256)


class TestFigureData:
    def test_fig2_fractions_sum(self):
        d = figures.fig2(scale=SCALE, k_cap=256)
        assert d["memory"] + d["sm"] + d["other"] == pytest.approx(1.0)
        assert d["figure"] == "fig2"

    def test_fig4_accuracy_and_points(self):
        d = figures.fig4(scale=SCALE, k_cap=256)
        assert 0.5 <= d["accuracy"] <= 1.0
        assert len(d["points"]) > 10
        assert all("ssf" in p and "t_ratio" in p for p in d["points"])

    def test_fig5_counts_match_bins(self):
        d = figures.fig5(scale=SCALE)
        assert len(d["counts"]) == len(d["bin_edges"]) - 1
        assert sum(d["counts"]) > 0

    def test_fig8_ratios_positive(self):
        d = figures.fig8(scale=SCALE)
        assert all(r["metadata_ratio"] > 0 for r in d["matrices"])

    def test_fig9_mean_in_band(self):
        # Tiny-scale plumbing check: at 256 rows the ultra-sparse corpus
        # entries sit below 1 (row_ptr dominates CSR), so the band is wide;
        # the Fig. 9 bench asserts the paper band at evaluation scale.
        d = figures.fig9(scale=SCALE)
        assert 0.4 < d["mean_total_ratio"] < 2.5

    def test_fig16_structure(self, fig16_data):
        g = fig16_data["geomean"]
        assert g["oracle"] >= g["hybrid"] - 1e-9
        assert g["hybrid"] >= g["blind_all_tiling"] - 1e-9
        assert g["hybrid"] >= g["c_stationary_best"] - 1e-9
        assert 0.0 <= fig16_data["fraction_not_slowed"] <= 1.0

    def test_fig16_points_have_all_series(self, fig16_data):
        p = fig16_data["points"][0]
        for key in ("baseline_csr", "online_tiled_dcsr", "c_stationary_best"):
            assert key in p

    def test_json_serializable(self, fig16_data):
        text = json.dumps(fig16_data, default=float)
        assert json.loads(text)["figure"] == "fig16"

    def test_dispatch(self):
        d = figures.generate("FIG5", scale=SCALE)
        assert d["figure"] == "fig5"

    def test_dispatch_unknown(self):
        with pytest.raises(ConfigError, match="unknown figure"):
            figures.generate("fig99")

    def test_sweep_records_hold_no_dense_output(self):
        # Each record keeps a name, an SSF and per-variant timings: the
        # variants' float64 outputs would hold gigabytes at scale 2.
        from repro.gpu.timing import TimingResult

        records = figures._sweep(SCALE, 256)
        assert records
        for name, s, timings in records:
            assert isinstance(name, str) and isinstance(s, float)
            assert timings and all(
                isinstance(t, TimingResult) for t in timings.values()
            )

    def test_deterministic(self):
        a = figures.fig9(scale=SCALE)
        b = figures.fig9(scale=SCALE)
        assert a == b


class TestFigureCLI:
    def test_cli_outputs_json(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig5", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["figure"] == "fig5"
