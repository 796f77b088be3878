"""Chaos suite: the supervised batch path survives kills, hangs, poison.

The acceptance property for the crash-safe runtime: with workers SIGKILLed
mid-batch, hangs injected past their deadline, and poison-pill requests in
the mix, a supervised ``run_batch`` (optionally followed by ``--resume``)
yields exactly the digests an undisturbed serial run produces — failures
surface as structured :class:`FailedItem` entries with retry/quarantine
counters in the trace, never as a ``BrokenProcessPool``-style abort.

Faults are injected *inside* workers via the deterministic
:class:`ChaosFault` seam (an in-worker ``os.kill(SIGKILL)`` is a genuine
worker death); the scripted external-kill round-trip lives in
``tools/chaos_smoke.py``.  Supervisor-level tests use a trivial task
function, so the process machinery is exercised without SpMM cost.
"""

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigError, SupervisionError
from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.runtime import (
    ChaosFault,
    ParallelExecutor,
    SpmmRequest,
    SpmmRuntime,
    SupervisionPolicy,
    WorkerSupervisor,
)
from repro.runtime.supervisor import NO_ITEM
from repro.telemetry import Tracer

#: Fast-failure policy shared by most tests: short backoff, two retries.
FAST = dict(backoff_base_s=0.01, heartbeat_interval_s=0.1)


def policy(**kw):
    merged = dict(FAST)
    merged.update(kw)
    return SupervisionPolicy(**merged)


@pytest.fixture(scope="module")
def requests():
    """Three cheap, distinct requests."""
    return [
        SpmmRequest(uniform_random(40, 30, 0.1, seed=s), k=4, seed=7)
        for s in range(3)
    ]


@pytest.fixture(scope="module")
def serial_digests(requests):
    """The undisturbed serial reference digests."""
    results = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
        requests
    )
    return [r.record.digest() for r in results]


def run_chaos(requests, chaos, *, workers=2, tracer=None, pol=None, **kw):
    executor = ParallelExecutor(SpmmRuntime(GV100), workers=workers)
    return executor.run_batch(
        requests,
        tracer=tracer,
        policy=pol if pol is not None else policy(),
        chaos=chaos,
        **kw,
    )


# --------------------------------------------------- supervisor-level chaos
def _square(ctx, item):
    return item * item


def _probe_fd_open(ctx, item):
    # True when the inherited fd named by ctx is still open in the worker.
    try:
        os.fstat(ctx)
        return True
    except OSError:
        return False


def _note_pid(ctx, item):
    # Leave this worker's pid behind, then go idle on the task pipe.
    open(os.path.join(ctx, f"worker-{os.getpid()}"), "w").close()
    return item


def _supervise_forever(out_dir):
    # A parent that never finishes its run: two items, then an idle stream.
    def stream():
        yield 0, 0
        yield 1, 1
        while True:
            yield NO_ITEM

    WorkerSupervisor(
        _note_pid, out_dir, workers=2,
        policy=policy(start_method="fork"),
    ).run(stream())


def _running(pid):
    # True while ``pid`` exists and is not a zombie (Linux /proc).
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _sigstop_self_once(ctx, item):
    # Freeze the whole process (heartbeat thread included) on the first
    # attempt only: a marker file distinguishes attempt 0 from the retry.
    marker = f"{ctx}/stopped-{item}"
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
        time.sleep(60)  # unreachable until SIGCONT; killed by supervisor
    return item * item


class TestSupervisor:
    def test_happy_path_resolves_every_index(self):
        supervisor = WorkerSupervisor(
            _square, None, workers=2, policy=policy()
        )
        payloads, failures = supervisor.run(enumerate(range(6)))
        assert failures == []
        assert payloads == {i: i * i for i in range(6)}
        assert supervisor.stats["executed"] == 6

    def test_child_close_fds_dropped_in_forked_workers(self, tmp_path):
        # A resident server registers its listening socket here so
        # SIGKILLed parents never leave the accept backlog alive inside
        # orphaned workers.  Forked children must see the fd closed.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        keep = os.open(str(tmp_path / "listener"), os.O_CREAT | os.O_RDWR)
        try:
            supervisor = WorkerSupervisor(
                _probe_fd_open, keep, workers=1,
                policy=policy(start_method="fork"),
            )
            payloads, failures = supervisor.run(enumerate(range(1)))
            assert failures == []
            assert payloads[0] is True  # inherited by default

            supervisor = WorkerSupervisor(
                _probe_fd_open, keep, workers=1,
                policy=policy(start_method="fork"),
            )
            supervisor.child_close_fds = (keep,)
            payloads, failures = supervisor.run(enumerate(range(1)))
            assert failures == []
            assert payloads[0] is False  # closed at worker startup
            os.fstat(keep)  # parent's copy is untouched
        finally:
            os.close(keep)

    def test_workers_exit_when_parent_is_sigkilled(self, tmp_path):
        # Forked workers must not hold the parent's pipe ends (their own
        # or a sibling's): with the parent gone, each idle worker's task
        # pipe has to read EOF so the worker exits instead of lingering.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        if not os.path.exists(f"/proc/{os.getpid()}/stat"):
            pytest.skip("needs /proc")
        helper = multiprocessing.get_context("fork").Process(
            target=_supervise_forever, args=(str(tmp_path),)
        )
        helper.start()
        try:
            deadline = time.monotonic() + 30
            pids = []
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
                pids = [int(name.split("-")[1])
                        for name in os.listdir(tmp_path)]
            assert len(pids) == 2, "workers never ran their items"
        finally:
            helper.kill()  # SIGKILL: the workers get no shutdown
            helper.join(timeout=10)
        assert not helper.is_alive()
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        lingering = [pid for pid in pids if _running(pid)]
        for pid in lingering:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert lingering == []

    def test_kill_is_retried_not_fatal(self):
        supervisor = WorkerSupervisor(
            _square, None, workers=2, policy=policy(),
            chaos={1: ChaosFault("kill")},
        )
        payloads, failures = supervisor.run(enumerate(range(4)))
        assert failures == []
        assert payloads[1] == 1
        assert supervisor.stats["worker_crashes"] >= 1
        assert supervisor.stats["worker_respawns"] >= 1
        assert supervisor.stats["retries"] >= 1

    def test_heartbeat_loss_detected_for_frozen_worker(self, tmp_path):
        supervisor = WorkerSupervisor(
            _sigstop_self_once, str(tmp_path), workers=2,
            policy=policy(
                heartbeat_interval_s=0.05, heartbeat_timeout_s=0.4
            ),
        )
        payloads, failures = supervisor.run(enumerate(range(3)))
        assert failures == []
        assert payloads == {0: 0, 1: 1, 2: 4}
        assert supervisor.stats["heartbeat_losses"] >= 1
        assert supervisor.stats["worker_kills"] >= 1

    def test_permanent_poison_quarantined_with_attempt_count(self):
        supervisor = WorkerSupervisor(
            _square, None, workers=2,
            policy=policy(max_retries=2),
            chaos={2: ChaosFault("raise", attempts=None)},
        )
        payloads, failures = supervisor.run(enumerate(range(4)))
        assert len(failures) == 1
        failed = failures[0]
        assert failed.index == 2
        assert failed.error_type == "RuntimeError"
        assert failed.attempts == 3  # max_retries + 1 dispatches
        assert 2 not in payloads
        assert set(payloads) == {0, 1, 3}

    def test_admission_window_bounds_pending_items(self):
        pulled = []

        def lazy():
            for i in range(40):
                pulled.append(i)
                yield i, i

        supervisor = WorkerSupervisor(
            _square, None, workers=2, policy=policy(max_pending=4)
        )
        payloads, failures = supervisor.run(lazy())
        assert failures == [] and len(payloads) == 40
        # the generator was consumed incrementally, not slurped up front
        assert pulled == list(range(40))

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ConfigError, match="chaos"):
            ChaosFault("explode")

    def test_bad_start_method_rejected(self):
        with pytest.raises(ConfigError, match="start method"):
            SupervisionPolicy(start_method="not-a-method")


# ----------------------------------------------------- executor-level chaos
class TestExecutorChaos:
    def test_killed_worker_recovers_digest_identical(
        self, requests, serial_digests
    ):
        """Acceptance: SIGKILL mid-batch, result == clean serial run."""
        results = run_chaos(requests, {0: ChaosFault("kill")})
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests
        assert results.stats["worker_crashes"] >= 1

    def test_hang_past_deadline_killed_and_retried(
        self, requests, serial_digests
    ):
        results = run_chaos(
            requests,
            {1: ChaosFault("hang")},
            pol=policy(request_timeout_s=0.75),
        )
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests
        assert results.stats["deadline_misses"] >= 1
        assert results.stats["worker_kills"] >= 1

    def test_poison_pill_quarantined_others_unharmed(
        self, requests, serial_digests
    ):
        results = run_chaos(
            requests,
            {1: ChaosFault("raise", attempts=None)},
            pol=policy(max_retries=1),
        )
        assert not results.ok
        assert results[1] is None
        assert [results[0].record.digest(), results[2].record.digest()] == [
            serial_digests[0], serial_digests[2],
        ]
        (failed,) = results.failures
        assert (failed.index, failed.attempts) == (1, 2)
        assert failed.error_type == "RuntimeError"
        assert "poison" in failed.message

    def test_fail_fast_raises_supervision_error(self, requests):
        with pytest.raises(SupervisionError, match="fail_fast"):
            run_chaos(
                requests,
                {0: ChaosFault("raise", attempts=None)},
                pol=policy(fail_fast=True),
            )

    def test_counters_visible_in_trace(self, requests):
        tracer = Tracer()
        results = run_chaos(
            requests,
            {0: ChaosFault("kill"), 2: ChaosFault("raise")},
            tracer=tracer,
        )
        assert results.ok  # both faults fire once; retries succeed
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["supervisor.retries"] >= 2
        assert counters["supervisor.worker_crashes"] >= 1
        assert counters["supervisor.worker_respawns"] >= 1

    def test_serial_path_retries_and_quarantines_too(self, requests):
        """workers=1 honors the same policy surface (parent-side retry)."""
        calls = {"n": 0}
        runtime = SpmmRuntime(GV100)
        original = runtime.run

        def flaky(request, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient parent-side failure")
            return original(request, **kw)

        runtime.run = flaky
        executor = ParallelExecutor(runtime, workers=1)
        results = executor.run_batch(requests, policy=policy(max_retries=1))
        assert results.ok
        assert results.stats["retries"] == 1


# ------------------------------------------------------- journal round-trip
class TestChaosResume:
    def test_chaos_then_resume_matches_serial(
        self, tmp_path, requests, serial_digests
    ):
        """Acceptance: chaos batch + --resume == undisturbed serial run."""
        journal = tmp_path / "run.jsonl"
        first = run_chaos(
            requests,
            {0: ChaosFault("kill"), 1: ChaosFault("raise", attempts=None)},
            pol=policy(max_retries=1),
            journal=journal,
        )
        assert not first.ok and first[1] is None
        assert first.failures[0].fingerprint is not None

        # the poison clears (chaos gone); resume replays the survivors
        resumed = run_chaos(requests, None, journal=journal, resume=True)
        assert resumed.ok
        assert [r.record.digest() for r in resumed] == serial_digests
        assert resumed.n_replayed == 2
        assert resumed.stats["executed"] == 1
        assert [r.replayed for r in resumed] == [True, False, True]

    def test_full_replay_executes_nothing(self, tmp_path, requests):
        journal = tmp_path / "run.jsonl"
        run_chaos(requests, None, journal=journal)
        again = run_chaos(requests, None, journal=journal, resume=True)
        assert again.ok and again.n_replayed == 3
        assert again.stats["executed"] == 0
        assert again.journal_summary["trusted_entries"] == 3

    def test_replay_counter_in_trace(self, tmp_path, requests):
        journal = tmp_path / "run.jsonl"
        run_chaos(requests, None, journal=journal)
        tracer = Tracer()
        run_chaos(requests, None, journal=journal, resume=True, tracer=tracer)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["journal.replayed"] == 3


# ------------------------------------------------------ start-method parity
class TestStartMethods:
    def test_spawn_workers_digest_identical(self, requests, serial_digests):
        """Regression for the fork/COW assumption: spawn must agree too."""
        results = run_chaos(
            requests, None, pol=policy(start_method="spawn")
        )
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests

    def test_spawn_survives_worker_kill(self, requests, serial_digests):
        results = run_chaos(
            requests,
            {2: ChaosFault("kill")},
            pol=policy(start_method="spawn"),
        )
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests


# ------------------------------------------------------- corruption chaos
class TestCorruptionChaos:
    """The ``corrupt`` fault: a byte flipped in a live shm segment.

    The worker must *detect* (attach-time checksum, structured
    ``OperandCorruptionError`` — never a silently wrong digest), the
    supervisor must *heal* (republish to a fresh segment before the
    retry), and the recovered batch must be digest-identical to an
    undisturbed serial run.
    """

    def test_corrupt_operand_detected_healed_digest_parity(
        self, requests, serial_digests
    ):
        tracer = Tracer()
        results = run_chaos(
            requests, {0: ChaosFault("corrupt")}, tracer=tracer
        )
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests
        assert results.stats["healed"] >= 1
        assert results.stats["retries"] >= 1
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["supervisor.healed"] >= 1
        assert counters["integrity.corruption_detected"] >= 1
        assert counters["integrity.republished"] >= 1

    def test_corruption_failure_is_structured_not_silent(self, requests):
        """Unhealable corruption quarantines with the error type intact."""
        executor = ParallelExecutor(SpmmRuntime(GV100), workers=2)
        # max_retries=0: detection fires, no retry budget to heal into.
        results = executor.run_batch(
            requests,
            policy=policy(max_retries=0),
            chaos={1: ChaosFault("corrupt")},
        )
        (failed,) = results.failures
        assert failed.index == 1
        assert failed.error_type == "OperandCorruptionError"
        # Untouched items still match the serial reference bytes.
        assert results[0] is not None and results[2] is not None

    def test_every_request_corrupted_still_recovers(
        self, requests, serial_digests
    ):
        chaos = {i: ChaosFault("corrupt") for i in range(len(requests))}
        results = run_chaos(requests, chaos)
        assert results.ok
        assert [r.record.digest() for r in results] == serial_digests
        assert results.stats["healed"] == len(requests)

    def test_corrupt_kind_validates(self):
        assert ChaosFault("corrupt").kind == "corrupt"
        with pytest.raises(ConfigError):
            ChaosFault("scramble")
