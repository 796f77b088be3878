"""Resource-pressure policy + the degraded-durability batch contract.

A full disk is an environmental fault, not a bug: the batch completes,
answers stay correct, every lost append is counted loudly
(``durability.lost``), and a restart re-executes rather than silently
losing work.
"""

import errno

import pytest

from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.resilience import failing_fsync
from repro.runtime import (
    ParallelExecutor,
    PressureEvent,
    ResourcePressure,
    RunJournal,
    SpmmRequest,
    SpmmRuntime,
    classify_oserror,
)
from repro.telemetry import Tracer


class TestClassify:
    @pytest.mark.parametrize(
        "err", [errno.ENOSPC, errno.EDQUOT, errno.ENOMEM, errno.EMFILE]
    )
    def test_exhaustion_errnos(self, err):
        assert classify_oserror(OSError(err, "boom")) == "exhausted"

    def test_plain_io_errors(self):
        assert classify_oserror(OSError(errno.EACCES, "denied")) == "io_error"
        assert classify_oserror(ValueError("no errno at all")) == "io_error"


class TestResourcePressure:
    def test_strike_degrades_once_and_warns_once(self, capsys):
        pressure = ResourcePressure()
        first = pressure.strike("journal", OSError(errno.ENOSPC, "full"))
        assert isinstance(first, PressureEvent)
        assert pressure.is_degraded("journal")
        assert pressure.any_degraded
        err = capsys.readouterr().err
        assert "journal plane degraded" in err
        assert "exhausted" in err
        # Second strike: recorded, but no second warning and the first
        # event stays the degradation reason.
        pressure.strike("journal", OSError(errno.EACCES, "later"))
        assert capsys.readouterr().err == ""
        assert pressure.degraded["journal"] is first
        assert len(pressure.events) == 2
        assert "full" in pressure.reason("journal")

    def test_planes_are_independent(self, capsys):
        pressure = ResourcePressure(warn=False)
        pressure.strike("persist", OSError(errno.ENOSPC, "full"))
        assert pressure.is_degraded("persist")
        assert not pressure.is_degraded("journal")
        assert capsys.readouterr().err == ""

    def test_lost_accounting_and_snapshot_shape(self):
        pressure = ResourcePressure(warn=False)
        pressure.strike("intent", OSError(errno.ENOSPC, "full"))
        pressure.record_lost("intent")
        pressure.record_lost("intent", 2)
        assert pressure.total_lost() == 3
        snap = pressure.snapshot()
        assert snap["lost"] == {"intent": 3}
        assert snap["strikes"] == 1
        assert snap["degraded"]["intent"]["cause"] == "exhausted"
        assert snap["degraded"]["intent"]["plane"] == "intent"


class TestBatchUnderDiskPressure:
    """Satellite (c): journal appends fail mid-batch with ENOSPC."""

    def test_enospc_mid_batch_degrades_with_counters(self, tmp_path, capsys):
        requests = [
            SpmmRequest(uniform_random(48, 48, 0.1, seed=s), k=4, seed=0)
            for s in range(3)
        ]
        runtime = SpmmRuntime(GV100)
        executor = ParallelExecutor(runtime, workers=1)
        journal = RunJournal(tmp_path / "run.jsonl")
        tracer = Tracer()
        with failing_fsync(fail_from=0):
            result = executor.run_batch(
                requests, tracer=tracer, journal=journal
            )
        # The batch completed — no traceback, all answers produced.
        assert len(result) == len(requests)
        assert result.ok
        # ... but durability was lost, loudly and accountably.
        assert journal.degraded
        durability = result.journal_summary["durability"]
        assert durability["degraded"] is True
        assert durability["lost"] >= 1
        assert durability["reason"] is not None
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["durability.lost"] == durability["lost"]
        assert "journal plane degraded" in capsys.readouterr().err
        # At-least-once restart contract: nothing replayable was kept,
        # so a resume re-executes instead of trusting lost lines.
        assert journal.lost >= 1

    def test_batch_without_pressure_reports_durable(self, tmp_path):
        requests = [
            SpmmRequest(uniform_random(48, 48, 0.1, seed=9), k=4, seed=0)
        ]
        runtime = SpmmRuntime(GV100)
        executor = ParallelExecutor(runtime, workers=1)
        journal = RunJournal(tmp_path / "run.jsonl")
        result = executor.run_batch(requests, journal=journal)
        durability = result.journal_summary["durability"]
        assert durability == {"degraded": False, "lost": 0, "reason": None}
