"""Benchmark harness tests: payload schema, the ≥5x acceptance gate, and
regression comparison semantics."""

import json

import pytest

from repro import bench
from repro.cli import main
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def quick_payload():
    """One quick-mode suite run, shared across schema/compare tests."""
    return bench.run_benchmarks(quick=True)


class TestPayloadSchema:
    def test_schema_version_and_envelope(self, quick_payload):
        p = quick_payload
        assert p["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert p["quick"] is True
        assert set(p["machine"]) == {
            "platform", "machine", "python", "numpy", "cpu_count",
        }
        assert set(p["benchmarks"]) == set(bench.BENCHMARKS)

    def test_every_benchmark_reports_throughput(self, quick_payload):
        for name, r in quick_payload["benchmarks"].items():
            assert r["wall_s"] > 0, name
            assert r["ops"] > 0, name
            assert r["ops_per_s"] == pytest.approx(r["ops"] / r["wall_s"])
            assert r["unit"]
            assert r["reps"] >= 1

    def test_payload_is_canonical_json(self, quick_payload):
        text = bench.payload_json(quick_payload)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(text)  # round-trips

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="no benchmark matches"):
            bench.run_benchmarks(quick=True, include=["no.such"])

    def test_unmatched_glob_rejected(self):
        with pytest.raises(ConfigError, match="no benchmark matches"):
            bench.run_benchmarks(quick=True, include=["nope.*"])

    def test_glob_selects_family_and_calibration(self):
        names = bench.select_benchmarks(["kernels.*"])
        assert bench.CALIBRATION in names
        assert "kernels.csr_spmm" in names
        assert "kernels.online_spmm" in names
        assert all(
            n == bench.CALIBRATION or n.startswith("kernels.")
            for n in names
        )


class TestAcceptanceGate:
    def test_fast_conversion_beats_stepwise_5x_bit_identical(self):
        """ISSUE acceptance: ≥5x on the harness's medium synthetic strip
        with bit-identical tiles and stats (full-size strip, not quick)."""
        r = bench.bench_conversion_fast(False)
        assert r["meta"]["bit_identical"] is True
        assert r["meta"]["speedup_vs_stepwise"] >= 5.0


class TestCompare:
    def test_self_comparison_is_clean(self, quick_payload):
        lines, regressed = bench.compare_payloads(
            quick_payload, quick_payload
        )
        assert regressed == []
        assert "normalizing" in lines[0]

    def test_regression_detected_with_normalization(self, quick_payload):
        """A benchmark 2x slower (calibration unchanged) trips a 30% bar."""
        current = json.loads(bench.payload_json(quick_payload))
        entry = current["benchmarks"]["conversion.fast_strip"]
        entry["ops_per_s"] /= 2.0
        lines, regressed = bench.compare_payloads(current, quick_payload)
        assert regressed == ["conversion.fast_strip"]
        assert any("REGRESSION" in line for line in lines)

    def test_uniform_machine_slowdown_is_not_a_regression(self, quick_payload):
        """Everything (calibration included) 3x slower → same machine-
        relative throughput → clean."""
        current = json.loads(bench.payload_json(quick_payload))
        for entry in current["benchmarks"].values():
            entry["ops_per_s"] /= 3.0
        _, regressed = bench.compare_payloads(current, quick_payload)
        assert regressed == []

    def test_missing_benchmark_regresses(self, quick_payload):
        current = json.loads(bench.payload_json(quick_payload))
        del current["benchmarks"]["batch.parallel"]
        _, regressed = bench.compare_payloads(current, quick_payload)
        assert regressed == ["batch.parallel"]

    def test_partial_payload_skips_missing(self, quick_payload):
        """A filtered (--only) run never flags what it didn't execute."""
        current = json.loads(bench.payload_json(quick_payload))
        del current["benchmarks"]["batch.parallel"]
        current["partial"] = True
        lines, regressed = bench.compare_payloads(current, quick_payload)
        assert regressed == []
        assert any("partial run; skipped" in line for line in lines)

    def test_schema_mismatch_skips_comparison(self, quick_payload):
        stale = json.loads(bench.payload_json(quick_payload))
        stale["schema_version"] = 0
        lines, regressed = bench.compare_payloads(quick_payload, stale)
        assert regressed == []
        assert "skipped" in lines[0]

    def test_bad_threshold_rejected(self, quick_payload):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="threshold"):
                bench.compare_payloads(
                    quick_payload, quick_payload, threshold=bad
                )


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(bench.BENCHMARKS)

    def test_bench_writes_schema_versioned_json(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        assert main(
            ["bench", "--quick", "--only", "calibration.matmul",
             "--only", "conversion.fast_strip", "--out", str(out_file)]
        ) == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert payload["quick"] is True
        assert "wrote" in capsys.readouterr().out

    def test_bench_check_against_fresh_baseline(self, tmp_path, capsys):
        """Write a baseline, then --check a rerun against it: clean exit."""
        baseline = tmp_path / "baseline.json"
        only = ["--only", "calibration.matmul", "--only", "formats.roundtrip"]
        assert main(
            ["bench", "--quick", *only, "--out", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--quick", *only, "--out", str(tmp_path / "rerun.json"),
             "--baseline", str(baseline), "--check", "--threshold", "0.9"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_check_without_baseline_errors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no committed baseline in cwd
        assert main(
            ["bench", "--quick", "--only", "calibration.matmul",
             "--out", str(tmp_path / "b.json"), "--check"]
        ) == 2
        assert "requires a baseline" in capsys.readouterr().err

    def test_bench_refuses_clobber_without_force(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        out_file.write_text("precious\n")
        assert main(
            ["bench", "--quick", "--only", "calibration.matmul",
             "--out", str(out_file)]
        ) == 2
        assert out_file.read_text() == "precious\n"

    def test_committed_baseline_is_current_schema(self):
        with open(bench.DEFAULT_BASELINE) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert payload["quick"] is True
        assert set(payload["benchmarks"]) == set(bench.BENCHMARKS)
