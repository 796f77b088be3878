"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.formats import CSRMatrix, write_matrix_market

from .conftest import random_dense

GEN = "block_diagonal:256:256:0.02:7"


@pytest.fixture
def mtx_file(tmp_path):
    dense = random_dense((40, 30), 0.1, seed=1)
    path = tmp_path / "m.mtx"
    write_matrix_market(CSRMatrix.from_dense(dense), path)
    return str(path)


class TestProfile:
    def test_generate(self, capsys):
        assert main(["profile", "--generate", GEN]) == 0
        out = capsys.readouterr().out
        assert "SSF" in out and "heuristic choice" in out
        assert "256 x 256" in out

    def test_mtx(self, mtx_file, capsys):
        assert main(["profile", "--mtx", mtx_file]) == 0
        assert "40 x 30" in capsys.readouterr().out

    def test_threshold_flag_changes_choice(self, capsys):
        main(["profile", "--generate", GEN, "--ssf-threshold", "0"])
        out1 = capsys.readouterr().out
        main(["profile", "--generate", GEN, "--ssf-threshold", "1e18"])
        out2 = capsys.readouterr().out
        assert "B-stationary" in out1
        assert "C-stationary" in out2

    def test_missing_matrix(self, capsys):
        assert main(["profile"]) == 2
        assert "error" in capsys.readouterr().err

    def test_both_sources_rejected(self, mtx_file, capsys):
        assert main(["profile", "--mtx", mtx_file, "--generate", GEN]) == 2

    def test_bad_family(self, capsys):
        assert main(["profile", "--generate", "magic:10:10:0.1"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_bad_spec(self, capsys):
        assert main(["profile", "--generate", "uniform:10"]) == 2


class TestFootprint:
    def test_lists_all_formats(self, capsys):
        assert main(["footprint", "--generate", GEN]) == 0
        out = capsys.readouterr().out
        for fmt in ("coo", "csr", "csc", "dcsr", "dcsc", "tiled_dcsr"):
            assert fmt in out

    def test_csr_normalized_to_one(self, capsys):
        main(["footprint", "--generate", GEN])
        out = capsys.readouterr().out
        csr_line = next(l for l in out.splitlines() if l.strip().startswith("csr"))
        assert "1.00x" in csr_line


class TestSimulate:
    def test_runs_all_variants(self, capsys):
        assert main(["simulate", "--generate", GEN, "--k", "64"]) == 0
        out = capsys.readouterr().out
        for v in ("baseline_csr", "online_tiled_dcsr", "hybrid choice"):
            assert v in out
        assert "verified" in out

    def test_tu116(self, capsys):
        assert main(
            ["simulate", "--generate", GEN, "--k", "64", "--gpu", "tu116"]
        ) == 0
        assert "TU116" in capsys.readouterr().out


class TestRun:
    def test_repeat_hits_plan_cache(self, capsys, monkeypatch):
        """Acceptance: same matrix twice → cache hit, identical digest."""
        from repro.runtime.plan import SpmmRequest

        derivations = []
        original = SpmmRequest.resolve_dense

        def counting(self):
            derivations.append(1)
            return original(self)

        monkeypatch.setattr(SpmmRequest, "resolve_dense", counting)
        assert main(["run", "--generate", GEN, "--k", "32"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("run ")]
        assert len(lines) == 2
        assert "cache=miss" in lines[0]
        assert "cache=hit" in lines[1]
        digest = lines[0].split("digest=")[1]
        assert lines[1].endswith(digest)
        assert "1 hits" in out
        # The repeat reuses the first iteration's conversions through the
        # FormatStore: the dense operand is derived exactly once, not once
        # per --repeat iteration.
        assert len(derivations) == 1

    def test_json_mode_emits_identical_records(self, capsys):
        assert main(["run", "--generate", GEN, "--k", "32", "--json"]) == 0
        out = capsys.readouterr().out
        first, second = out.split("}\n{")
        r1 = json.loads(first + "}")
        r2 = json.loads("{" + second)
        assert r1 == r2
        assert r1["plan"]["algorithm"] in (
            "c_stationary_best", "online_tiled_dcsr"
        )

    def test_batch_mode(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text(f"{GEN}\nuniform:128:128:0.05:2\n# comment\n")
        assert main(
            ["run", "--batch", str(batch), "--k", "16", "--repeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("cache=miss") == 2
        assert "2 entries" in out

    def test_record_out_file(self, tmp_path, capsys):
        dest = tmp_path / "records.json"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--record-out", str(dest)]
        ) == 0
        records = json.loads(dest.read_text())
        assert len(records) == 2
        assert records[0] == records[1]

    def test_empty_batch_rejected(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("\n")
        assert main(["run", "--batch", str(batch)]) == 2
        assert "no matrices" in capsys.readouterr().err

    def test_bad_repeat_rejected(self, capsys):
        assert main(["run", "--generate", GEN, "--repeat", "0"]) == 2

    def test_record_out_refuses_clobber_without_force(self, tmp_path, capsys):
        dest = tmp_path / "records.json"
        dest.write_text("precious\n")
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--record-out", str(dest)]
        ) == 2
        assert "--force" in capsys.readouterr().err
        assert dest.read_text() == "precious\n"  # untouched

    def test_record_out_force_overwrites_atomically(self, tmp_path, capsys):
        dest = tmp_path / "records.json"
        dest.write_text("stale\n")
        assert main(
            ["run", "--generate", GEN, "--k", "16",
             "--record-out", str(dest), "--force"]
        ) == 0
        assert len(json.loads(dest.read_text())) == 2
        leftovers = [p for p in dest.parent.iterdir() if p != dest]
        assert leftovers == []  # no temp files left behind


class TestRunBatchReliability:
    """The crash-safe batch surface: journal flags, failures, bad input."""

    def batch_file(self, tmp_path, lines=(GEN, "uniform:128:128:0.05:2")):
        batch = tmp_path / "batch.txt"
        batch.write_text("\n".join(lines) + "\n")
        return str(batch)

    def test_bad_batch_line_blamed_cleanly(self, tmp_path, capsys):
        batch = self.batch_file(
            tmp_path, (GEN, "nonsense:10:10:0.1", GEN)
        )
        assert main(["run", "--batch", batch, "--k", "16"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "unknown family" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--journal", "j.jsonl"],
            ["--resume", "j.jsonl"],
            ["--fail-fast"],
            ["--request-timeout", "5"],
            ["--start-method", "fork"],
        ],
    )
    def test_batch_only_flags_rejected_without_batch(self, flags, capsys):
        assert main(["run", "--generate", GEN, "--k", "16", *flags]) == 2
        assert "requires --batch" in capsys.readouterr().err

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        batch = self.batch_file(tmp_path)
        journal = tmp_path / "run.jsonl"
        assert main(
            ["run", "--batch", batch, "--k", "16", "--repeat", "1",
             "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "2/2 completed" in out
        assert main(
            ["run", "--batch", batch, "--k", "16", "--repeat", "1",
             "--resume", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 replayed" in out
        assert "2 trusted entries" in out

    def test_journal_summary_reports_appended_counts(self, tmp_path, capsys):
        batch = self.batch_file(tmp_path)
        journal = tmp_path / "run.jsonl"
        # Fresh journal: every completion is appended and the run says so.
        assert main(
            ["run", "--batch", batch, "--k", "16", "--repeat", "1",
             "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert "2 appended" in out
        # Full replay: summary still prints (0 appended) and exit stays 0.
        assert main(
            ["run", "--batch", batch, "--k", "16", "--repeat", "1",
             "--resume", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 appended" in out
        assert "2 replayed" in out
        assert "2/2 completed" in out

    def test_journal_refuses_clobber_without_force(self, tmp_path, capsys):
        batch = self.batch_file(tmp_path)
        journal = tmp_path / "run.jsonl"
        journal.write_text("precious\n")
        assert main(
            ["run", "--batch", batch, "--k", "16",
             "--journal", str(journal)]
        ) == 2
        assert "--force" in capsys.readouterr().err
        assert journal.read_text() == "precious\n"

    def test_journal_and_resume_mutually_exclusive(self, tmp_path, capsys):
        batch = self.batch_file(tmp_path)
        assert main(
            ["run", "--batch", batch, "--journal", "a.jsonl",
             "--resume", "b.jsonl"]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_resume_requires_existing_journal(self, tmp_path, capsys):
        batch = self.batch_file(tmp_path)
        assert main(
            ["run", "--batch", batch,
             "--resume", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "not found" in capsys.readouterr().err

    def test_quarantined_item_exits_one_with_failure_report(
        self, tmp_path, capsys
    ):
        # An impossible deadline (the item alone needs ~8x longer): it is
        # killed and quarantined, the CLI reports it on stderr and exits
        # 1 — never a traceback.
        batch = self.batch_file(tmp_path, ("uniform:2000:1500:0.05:1",))
        assert main(
            ["run", "--batch", batch, "--k", "512", "--repeat", "1",
             "--workers", "2", "--request-timeout", "0.02",
             "--max-retries", "0"]
        ) == 1
        captured = capsys.readouterr()
        assert "failed item 0: RequestTimeoutError" in captured.err
        assert "0/1 completed" in captured.out


class TestRunTrace:
    def test_jsonl_trace_has_run_root_with_children(self, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        assert main(
            ["run", "--generate", GEN, "--k", "16",
             "--repeat", "1", "--trace", str(dest)]
        ) == 0
        records = [
            json.loads(l) for l in dest.read_text().splitlines()
        ]
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["run"]
        names = {r["name"] for r in records}
        assert "cache_lookup" in names and "plan" in names
        assert "execute" in names
        assert any(n.startswith("kernel:") for n in names)
        assert "spans" in capsys.readouterr().out

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path, capsys):
        dest = tmp_path / "trace.json"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--repeat", "1",
             "--trace", str(dest), "--trace-format", "chrome"]
        ) == 0
        doc = json.loads(dest.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_tree_trace_is_indented_text(self, tmp_path, capsys):
        dest = tmp_path / "trace.txt"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--repeat", "1",
             "--trace", str(dest), "--trace-format", "tree"]
        ) == 0
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("run")
        assert any(l.startswith("  ") for l in lines)

    def test_json_mode_keeps_stdout_pure(self, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--repeat", "1",
             "--json", "--trace", str(dest)]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # exactly one record, nothing else
        assert "spans" in captured.err

    def test_trace_refuses_clobber_without_force(self, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        dest.write_text("precious\n")
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--trace", str(dest)]
        ) == 2
        assert dest.read_text() == "precious\n"

    def test_untraced_digest_matches_traced(self, tmp_path, capsys):
        assert main(["run", "--generate", GEN, "--k", "16",
                     "--repeat", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--repeat", "1",
             "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        digest = [l for l in plain.splitlines() if "digest=" in l][0]
        assert digest in traced


class TestReport:
    def test_renders_bundle(self, tmp_path, capsys):
        dest = tmp_path / "records.json"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--record-out", str(dest)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "record 1/2" in out and "record 2/2" in out
        assert "traffic:" in out and "stall:" in out and "digest:" in out

    def test_renders_single_record_with_trace_summary(self, tmp_path, capsys):
        dest = tmp_path / "records.json"
        assert main(
            ["run", "--generate", GEN, "--k", "16", "--repeat", "1",
             "--record-out", str(dest), "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        single = tmp_path / "one.json"
        single.write_text(json.dumps(json.loads(dest.read_text())[0]))
        capsys.readouterr()
        assert main(["report", str(single)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("record:")
        assert "trace:" in out and "spans under 'run'" in out

    def test_missing_file_rejected(self, capsys):
        assert main(["report", "/nonexistent/records.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_record_document_rejected(self, tmp_path, capsys):
        bad = tmp_path / "other.json"
        bad.write_text('{"foo": 1}')
        assert main(["report", str(bad)]) == 2
        assert "not a RunRecord" in capsys.readouterr().err


class TestSimulateJson:
    def test_json_record(self, capsys):
        assert main(
            ["simulate", "--generate", GEN, "--k", "32", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert {"plan", "traffic", "timing", "stall", "output"} <= set(record)
        assert record["plan"]["provenance"]["ssf"] > 0

    def test_json_diagnostics_go_to_stderr(self, capsys):
        assert main(
            ["simulate", "--generate", GEN, "--k", "32", "--json"]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is one pure JSON document
        assert "verified" in captured.err


class TestEngine:
    def test_gv100_report(self, capsys):
        assert main(["engine"]) == 0
        out = capsys.readouterr().out
        assert "0.077" in out
        assert "0.68 W" in out

    def test_tu116_report(self, capsys):
        assert main(["engine", "--gpu", "tu116"]) == 0
        assert "TU116" in capsys.readouterr().out


class TestErrorHandling:
    """Satellite: bad inputs exit 2 with a clean message, never a traceback."""

    def test_missing_mtx_file(self, capsys):
        assert main(["profile", "--mtx", "/nonexistent/nope.mtx"]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err

    def test_unreadable_mtx_path(self, tmp_path, capsys):
        # A directory is unreadable as a matrix file (works even as root,
        # where permission bits would not block the open).
        assert main(["profile", "--mtx", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_malformed_generator_numbers(self, capsys):
        assert main(["profile", "--generate", "uniform:ten:10:0.1"]) == 2
        assert "malformed generator spec" in capsys.readouterr().err

    def test_malformed_generator_density(self, capsys):
        assert main(["profile", "--generate", "uniform:10:10:dense"]) == 2
        assert "malformed generator spec" in capsys.readouterr().err

    def test_malformed_generator_seed(self, capsys):
        assert main(["profile", "--generate", "uniform:10:10:0.1:x"]) == 2
        assert "malformed generator spec" in capsys.readouterr().err
