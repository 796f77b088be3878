"""ParallelExecutor determinism: N workers == 1 worker == serial runtime.

The process-pool path must be a pure throughput change — worker records
are digest-identical to serial ones, results come back in request order,
parent-side plan-cache bookkeeping matches a serial batch, and when the
parent traces, worker metrics and span forests merge into its tracer.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigError, SupervisionError
from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.runtime import (
    ParallelExecutor,
    PlanCache,
    Planner,
    RunRecord,
    SpmmRequest,
    SpmmRuntime,
    SupervisionPolicy,
    matrix_fingerprint,
)
from repro.runtime import parallel as worker
from repro.telemetry import Tracer


@pytest.fixture(scope="module")
def requests():
    """Three requests: two distinct matrices plus a repeat of the first."""
    a = uniform_random(96, 96, 0.03, seed=1)
    b = uniform_random(128, 64, 0.05, seed=2)
    return [
        SpmmRequest(a, k=16, seed=0),
        SpmmRequest(b, k=16, seed=0),
        SpmmRequest(a, k=16, seed=0),  # plan-cache hit in the parent
    ]


def run_with_workers(requests, workers, tracer=None):
    runtime = SpmmRuntime(GV100)
    executor = ParallelExecutor(runtime, workers=workers)
    return runtime, executor.run_batch(requests, tracer=tracer)


class TestDeterminism:
    def test_parallel_matches_serial_digests(self, requests):
        """Acceptance: N workers, 1 worker, and the bare runtime agree."""
        runtime_serial = SpmmRuntime(GV100)
        reference = [runtime_serial.run(r).record for r in requests]
        _, one = run_with_workers(requests, 1)
        _, two = run_with_workers(requests, 2)
        for want, got1, got2 in zip(reference, one, two):
            assert got1.record.digest() == want.digest()
            assert got2.record.digest() == want.digest()
            assert got1.record.to_json() == want.to_json()
            assert got2.record.to_json() == want.to_json()

    def test_results_in_request_order(self, requests):
        _, results = run_with_workers(requests, 2)
        assert [r.index for r in results] == [0, 1, 2]

    def test_cache_hits_match_serial_bookkeeping(self, requests):
        """Repeat of a request is a hit in both modes; parent cache agrees."""
        runtime1, one = run_with_workers(requests, 1)
        runtime2, two = run_with_workers(requests, 2)
        assert [r.cache_hit for r in one] == [False, False, True]
        assert [r.cache_hit for r in two] == [False, False, True]
        assert runtime1.cache.stats == runtime2.cache.stats

    def test_plans_match_serial(self, requests):
        _, one = run_with_workers(requests, 1)
        _, two = run_with_workers(requests, 2)
        for a, b in zip(one, two):
            assert a.plan.to_dict() == b.plan.to_dict()

    def test_explicit_dense_operand_round_trips(self):
        m = uniform_random(64, 48, 0.05, seed=5)
        dense = np.ones((48, 8), dtype=np.float32)
        reqs = [SpmmRequest(m, dense=dense)]
        _, serial = run_with_workers(reqs, 1)
        _, parallel = run_with_workers(reqs, 2)
        assert parallel[0].record.digest() == serial[0].record.digest()


#: batch path -> (workers, coalesce)
PATHS = {"in-process": (1, False), "pool": (2, False), "fused": (2, True)}


class TestPlanningFailure:
    """A request whose planning raises is quarantined alone, never fatal."""

    @pytest.fixture
    def batch(self, monkeypatch):
        """``[good, bad, good]``; planning raises for the middle request."""
        good = uniform_random(96, 96, 0.03, seed=1)
        # same content as ``good``, so all three share one fusion window;
        # its own k keeps it off the good requests' plan-cache entry
        bad = uniform_random(96, 96, 0.03, seed=1)
        requests = [
            SpmmRequest(good, k=8, seed=0),
            SpmmRequest(bad, k=4),
            SpmmRequest(good, k=8, seed=1),
        ]
        runtime = SpmmRuntime(GV100)
        expected = [runtime.run(requests[i]).record.digest() for i in (0, 2)]
        original = Planner.plan

        def plan(self, request, *args, **kwargs):
            if request.matrix is bad:
                raise ConfigError("planning refused")
            return original(self, request, *args, **kwargs)

        monkeypatch.setattr(Planner, "plan", plan)
        return requests, expected

    @staticmethod
    def run(requests, path, **policy):
        workers, coalesce = PATHS[path]
        return ParallelExecutor(SpmmRuntime(GV100), workers=workers).run_batch(
            requests, coalesce=coalesce,
            policy=SupervisionPolicy(backoff_base_s=0.001, **policy),
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_bad_plan_quarantined_alone(self, batch, path):
        requests, expected = batch
        result = self.run(requests, path)
        assert [result[0].record.digest(), result[2].record.digest()] == expected
        assert result[1] is None
        (failed,) = result.failures
        assert (failed.index, failed.error_type) == (1, "ConfigError")
        assert result.summary()["supervision"]["quarantined"] == 1
        if path != "in-process":  # in-process plans inside the task
            assert (failed.phase, failed.attempts) == ("plan", 1)
        # the window's two planned members still fused into one pass
        fused = [r.record.extras.get("coalesce") for r in (result[0], result[2])]
        assert [w and w["window"] for w in fused] == [
            2 if path == "fused" else None
        ] * 2

    @pytest.mark.parametrize("path", PATHS)
    def test_fail_fast_aborts_on_bad_plan(self, batch, path):
        with pytest.raises(SupervisionError, match="fail_fast"):
            self.run(batch[0], path, fail_fast=True)


class TestTelemetryMerge:
    def test_worker_spans_graft_into_parent(self, requests):
        tracer = Tracer()
        run_with_workers(requests, 2, tracer=tracer)
        (batch_root,) = tracer.roots
        assert batch_root.name == "batch"
        remote = [
            s for s in batch_root.iter_spans()
            if s.attributes.get("remote")
        ]
        assert len(remote) == len(requests)
        assert sorted(s.attributes["batch_index"] for s in remote) == [0, 1, 2]
        # each grafted worker root is a full `run` tree, children included
        assert all(s.name == "run" for s in remote)
        assert all(s.children for s in remote)

    def test_worker_metrics_fold_into_parent(self, requests):
        tracer = Tracer()
        run_with_workers(requests, 2, tracer=tracer)
        snapshot = tracer.metrics.snapshot()
        counters = snapshot["counters"]
        # parent planning: one miss per unique matrix + one hit; worker-side
        # runs re-count their local lookups on top.
        assert counters["plan_cache.misses"] >= 2
        assert counters["kernel.executions"] >= len(requests)

    def test_untraced_batch_leaves_no_spans(self, requests):
        runtime = SpmmRuntime(GV100)
        executor = ParallelExecutor(runtime, workers=2)
        executor.run_batch(requests)
        assert list(runtime.tracer.iter_spans()) == []


def test_in_process_batch_keeps_no_outputs():
    """workers=1 keeps each item's record and plan, not its dense output."""
    runtime = SpmmRuntime(GV100)
    original = runtime.run
    executions, live = [], []

    def run(request, **kwargs):
        gc.collect()  # every earlier item has been checkpointed by now
        live.append(sum(ref() is not None for ref in executions))
        outcome = original(request, **kwargs)
        executions.append(weakref.ref(outcome.execution))
        return outcome

    runtime.run = run
    requests = [
        SpmmRequest(uniform_random(64, 64, 0.05, seed=s), k=8)
        for s in range(3)
    ]
    assert ParallelExecutor(runtime, workers=1).run_batch(requests).ok
    assert live == [0, 0, 0]


class TestWorkerMemory:
    """A resident worker's memory follows its bounded plan cache."""

    @pytest.fixture(autouse=True)
    def fresh_worker_state(self, monkeypatch):
        # empty memos of the module's own types, as in a fresh worker
        monkeypatch.setattr(worker, "_WORKER_STORES",
                            type(worker._WORKER_STORES)())
        monkeypatch.setattr(worker, "_WORKER_RUNTIMES", {})

    @staticmethod
    def handle_for(request, index=0):
        plan, _, _ = SpmmRuntime(GV100).plan(request)
        return worker.PlanHandle(
            index=index, plan=plan.to_dict(), matrix=request.matrix,
            fingerprint=matrix_fingerprint(request.matrix), k=request.k,
            seed=request.seed, tile_width=request.tile_width,
            ssf_threshold=None,
        )

    def test_seeded_operands_are_not_kept(self):
        m = uniform_random(96, 96, 0.03, seed=1)
        for seed in range(5):
            request = SpmmRequest(m, k=16, seed=seed)
            record_json, _, _ = worker.execute_handle(
                (GV100, False), self.handle_for(request, seed)
            )
            serial = SpmmRuntime(GV100).run(request).record
            assert RunRecord.from_json(record_json).digest() == serial.digest()
        store = worker._WORKER_STORES[matrix_fingerprint(m)]
        assert not [key for key in store.artifacts
                    if isinstance(key, tuple) and key[:1] == ("dense",)]

    def test_stores_live_only_as_long_as_plan_cache_entries(self):
        n = PlanCache().max_entries + 6
        for i in range(n):
            request = SpmmRequest(uniform_random(24, 24, 0.1, seed=i), k=4)
            worker._prepare_worker_item(GV100, self.handle_for(request, i))
        gc.collect()
        assert len(worker._WORKER_STORES) <= PlanCache().max_entries


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ParallelExecutor(SpmmRuntime(GV100), workers=0)

    def test_default_workers_is_cpu_count(self):
        executor = ParallelExecutor(SpmmRuntime(GV100))
        assert executor.workers >= 1

    def test_empty_batch(self):
        _, results = run_with_workers([], 2)
        assert results == []
