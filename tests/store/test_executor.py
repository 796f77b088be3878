"""Operand-plane executor path: each matrix ships once per batch."""

from repro.matrices import uniform_random
from repro.runtime import ParallelExecutor, SpmmRequest, SpmmRuntime
from repro.runtime.supervisor import SupervisionPolicy
from repro.telemetry import Tracer

from repro.gpu import GV100


def fork_policy():
    return SupervisionPolicy(start_method="fork")


# ------------------------------------------------------------- ship once
def test_batch_ships_operand_into_shared_memory_exactly_once():
    """Acceptance: >=100 requests on one matrix, 4 workers, one segment."""
    m = uniform_random(64, 64, 0.05, seed=3)
    requests = [SpmmRequest(m, k=4, seed=0) for _ in range(100)]
    tracer = Tracer()
    executor = ParallelExecutor(SpmmRuntime(GV100), workers=4)
    results = executor.run_batch(requests, tracer=tracer, policy=fork_policy())
    assert len(results) == 100 and not results.failures
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["store.segments"] == 1
    assert counters["store.bytes_shipped"] > 0
    assert counters.get("store.bytes_pickled", 0) == 0
    # 99 of the 100 publishes found the segment already resident.
    assert counters["store.publish_hits"] == 99
    # Each of the 4 workers attached once; every later execution reused
    # the process-local attachment.
    assert counters["store.attaches"] <= 4
    assert counters["store.attach_hits"] >= 100 - 4 - 1


def test_distinct_matrices_get_distinct_segments():
    a = uniform_random(48, 48, 0.05, seed=1)
    b = uniform_random(48, 48, 0.05, seed=2)
    requests = [SpmmRequest(a, k=4, seed=0), SpmmRequest(b, k=4, seed=0)]
    tracer = Tracer()
    executor = ParallelExecutor(SpmmRuntime(GV100), workers=2)
    executor.run_batch(requests, tracer=tracer, policy=fork_policy())
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["store.segments"] == 2
