"""Run-journal durability: append/load round-trips and corruption handling.

Every distrust path the loader supports is exercised here: a torn final
append, a corrupt interior line, a duplicated fingerprint, a digest that
no longer matches its record, a wrong schema version, and a structurally
malformed entry.  Each must be *reported* (in the summary) and *distrusted*
(the fingerprint re-executes on resume), never silently believed — and
compaction must heal the file so anomalies don't accumulate.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.runtime import (
    JOURNAL_VERSION,
    ParallelExecutor,
    RunJournal,
    SpmmRequest,
    SpmmRuntime,
    request_fingerprint,
)
from repro.runtime.journal import ANOMALY_KINDS


@pytest.fixture(scope="module")
def records():
    """Three real (fingerprint, RunRecord) pairs from distinct requests."""
    runtime = SpmmRuntime(GV100)
    out = []
    for seed in range(3):
        m = uniform_random(40, 30, 0.1, seed=seed)
        request = SpmmRequest(m, k=4, seed=7)
        fp = request_fingerprint(
            request, runtime.config, runtime._effective_threshold(request)
        )
        out.append((fp, runtime.run(request).record))
    return out


def write_journal(path, pairs):
    journal = RunJournal(path)
    for fp, record in pairs:
        assert journal.append(fp, record)
    return journal


class TestAppendLoad:
    def test_round_trip(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        replay = RunJournal.load(path)
        assert replay.clean
        assert replay.total_lines == 3
        assert [r for r in replay.order] == [fp for fp, _ in records]
        for fp, record in records:
            assert replay.records[fp].digest() == record.digest()

    def test_missing_file_is_empty_clean_replay(self, tmp_path):
        replay = RunJournal.load(tmp_path / "absent.jsonl")
        assert replay.clean and replay.records == {}

    def test_append_dedupes_by_fingerprint(self, tmp_path, records):
        fp, record = records[0]
        journal = RunJournal(tmp_path / "j.jsonl")
        assert journal.append(fp, record) is True
        assert journal.append(fp, record) is False
        assert RunJournal.load(journal.path).total_lines == 1

    def test_lines_are_single_line_json(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert doc["version"] == JOURNAL_VERSION
            assert doc["kind"] == "record"

    def test_unwritable_path_degrades_instead_of_raising(
        self, tmp_path, records, capsys
    ):
        # A write failure must not kill the batch: the journal flips into
        # a loud non-durable degraded mode and counts the lost append.
        fp, record = records[0]
        journal = RunJournal(tmp_path / "no" / "such" / "dir" / "j.jsonl")
        assert journal.append(fp, record) is False
        assert journal.degraded
        assert journal.lost == 1
        assert journal.pressure.lost["journal"] == 1
        assert "journal plane degraded" in capsys.readouterr().err
        # Later appends are skipped (and counted) without further I/O.
        fp2, record2 = records[1]
        assert journal.append(fp2, record2) is False
        assert journal.lost == 2


class TestCorruption:
    def test_truncated_tail_tolerated(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # tear the final append
        replay = RunJournal.load(path)
        assert [a["kind"] for a in replay.anomalies] == ["truncated_tail"]
        assert len(replay.records) == 2  # first two still trusted
        assert records[2][0] not in replay.records

    def test_corrupt_interior_line(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:30]  # mangle the middle entry
        path.write_text("\n".join(lines) + "\n")
        replay = RunJournal.load(path)
        assert [a["kind"] for a in replay.anomalies] == ["corrupt_line"]
        assert replay.anomalies[0]["line"] == 2
        assert records[1][0] not in replay.records
        assert len(replay.records) == 2

    def test_duplicate_fingerprint_distrusts_both_copies(
        self, tmp_path, records
    ):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        replay = RunJournal.load(path)
        kinds = [a["kind"] for a in replay.anomalies]
        assert kinds == ["duplicate_fingerprint"]
        # both copies of the duplicated fingerprint are distrusted
        assert records[0][0] not in replay.records
        assert len(replay.records) == 2

    def test_digest_mismatch_distrusted(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["digest"] = "0" * 64
        lines[0] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        replay = RunJournal.load(path)
        assert [a["kind"] for a in replay.anomalies] == ["digest_mismatch"]
        assert replay.anomalies[0]["fingerprint"] == records[0][0]
        assert records[0][0] not in replay.records

    def test_unsupported_version_flagged(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records[:1])
        doc = json.loads(path.read_text())
        doc["version"] = JOURNAL_VERSION + 1
        path.write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        )
        replay = RunJournal.load(path)
        assert [a["kind"] for a in replay.anomalies] == ["unsupported_version"]
        assert replay.records == {}

    def test_malformed_entry_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"version": 1, "kind": "record"}\n[1, 2]\n')
        replay = RunJournal.load(path)
        kinds = sorted(a["kind"] for a in replay.anomalies)
        assert kinds == ["malformed_entry", "malformed_entry"]

    def test_summary_reports_anomaly_counts(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        summary = RunJournal.load(path).summary()
        assert summary["schema_version"] == JOURNAL_VERSION
        assert summary["trusted_entries"] == 2
        assert summary["anomaly_counts"] == {"truncated_tail": 1}
        assert summary["anomalies"][0]["line"] == 3


class TestCompaction:
    def test_compact_heals_anomalies(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        journal = write_journal(path, records)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # torn tail
        replay = RunJournal.load(path)
        assert not replay.clean
        journal = RunJournal(path)
        journal.compact(replay)
        healed = RunJournal.load(path)
        assert healed.clean
        assert healed.total_lines == 2
        assert list(healed.order) == list(replay.order)

    def test_compact_preserves_append_order(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        journal = write_journal(path, records)
        replay = RunJournal.load(path)
        journal.compact(replay)
        assert list(RunJournal.load(path).order) == [fp for fp, _ in records]

    def test_seed_replayed_prevents_duplicate_appends(
        self, tmp_path, records
    ):
        path = tmp_path / "j.jsonl"
        write_journal(path, records)
        journal = RunJournal(path)
        journal.seed_replayed(RunJournal.load(path))
        fp, record = records[0]
        assert journal.append(fp, record) is False
        assert RunJournal.load(path).total_lines == 3


class TestResumeDistrust:
    """Corrupt journals feed --resume: distrusted items must re-execute."""

    def test_digest_mismatch_re_executes_on_resume(self, tmp_path):
        mats = [uniform_random(40, 30, 0.1, seed=s) for s in range(2)]
        requests = [SpmmRequest(m, k=4, seed=7) for m in mats]
        path = tmp_path / "j.jsonl"
        first = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
            requests, journal=path
        )
        ref = [r.record.digest() for r in first]
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["digest"] = "f" * 64
        lines[0] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        result = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
            requests, journal=path, resume=True
        )
        assert result.journal_summary["anomaly_counts"] == {
            "digest_mismatch": 1
        }
        # item 0 re-executed, item 1 replayed; digests still all correct
        assert [r.replayed for r in result] == [False, True]
        assert [r.record.digest() for r in result] == ref
        # and the journal healed: next resume is clean and replays both
        final = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
            requests, journal=path, resume=True
        )
        assert final.journal_summary["anomalies"] == []
        assert [r.replayed for r in final] == [True, True]
        assert final.stats["executed"] == 0


#: raw lines a damaged journal may hold: not UTF-8, nested too deep to
#: parse, valid JSON of the wrong shape
HOSTILE_LINES = [b"\xff\xfe{}", b"[" * 100_000, b'"a string"', b"[1, 2]", b"{}"]


@pytest.fixture(scope="module")
def valid_lines(records, tmp_path_factory):
    """The journal lines of ``records``, as bytes."""
    path = tmp_path_factory.mktemp("lines") / "j.jsonl"
    write_journal(path, records)
    return path.read_bytes().splitlines()


class TestRawBytes:
    """The loader never raises on content; resume always heals."""

    @settings(max_examples=60)
    @given(lines=st.lists(
        st.one_of(st.binary(max_size=40), st.sampled_from(HOSTILE_LINES),
                  st.integers(0, 2)),
        max_size=6,
    ))
    @example(lines=[0, b"\xff", 1])
    @example(lines=[b"[" * 100_000])
    def test_load_and_resume_never_raise(self, valid_lines, lines):
        raw = b"\n".join(
            valid_lines[x] if isinstance(x, int) else x for x in lines
        )
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "j.jsonl")
            with open(path, "wb") as fh:
                fh.write(raw)
            replay = RunJournal.load(path)
            assert {a["kind"] for a in replay.anomalies} <= set(ANOMALY_KINDS)
            resumed = RunJournal(path).resume()
            healed = RunJournal.load(path)
        assert resumed.records.keys() == replay.records.keys()
        assert healed.clean and healed.records.keys() == replay.records.keys()
