"""Overload behaviour of the FIFO queue model.

Drives the arrival rate past the service rate and checks the queue
behaves like an overloaded M/G/1 system: the backlog and waiting times
grow without bound (linearly in the number of admitted requests), and
growth gets steeper as the overload factor rises.  This is the converse
of the Section 5.3 steady-state claim that queues stay near-empty while
conversion keeps ahead of SM demand.
"""

import numpy as np
import pytest

from repro.engine import pipeline_report, simulate_fifo
from repro.gpu import GV100

N = 100
STEPS = 1000


@pytest.fixture(scope="module")
def rep():
    return pipeline_report(GV100)


def _service_s(rep, steps=STEPS):
    return (steps + rep.n_stages) * rep.cycle_time_ns * 1e-9


def _overloaded(rep, factor, n=N):
    """Arrivals at `factor`x the service rate (factor > 1 = overload)."""
    arrivals = np.arange(n) * (_service_s(rep) / factor)
    return simulate_fifo(arrivals, [STEPS] * n, rep)


class TestOverloadGrowth:
    def test_waits_grow_linearly(self, rep):
        """At 2x overload every request waits ~half a service time longer
        than its predecessor: wait_i ≈ i * service/2."""
        q = _overloaded(rep, 2.0)
        service = _service_s(rep)
        waits = np.array([r.wait_s for r in q.requests])
        assert np.all(np.diff(waits) > 0)
        np.testing.assert_allclose(
            np.diff(waits), service / 2, rtol=0.05
        )
        assert waits[-1] == pytest.approx((N - 1) * service / 2, rel=0.05)

    def test_occupancy_grows_with_backlog(self, rep):
        q = _overloaded(rep, 2.0)
        # Half of each inter-service interval adds one queued request.
        assert q.max_queue_depth >= N // 2 - 1
        assert q.utilization == pytest.approx(1.0, abs=1e-3)

    def test_growth_steeper_at_higher_overload(self, rep):
        mild = _overloaded(rep, 1.25)
        severe = _overloaded(rep, 4.0)
        assert severe.mean_wait_s > mild.mean_wait_s
        assert severe.max_queue_depth > mild.max_queue_depth
        assert severe.max_latency_s > mild.max_latency_s

    def test_below_saturation_no_growth(self, rep):
        """Control: the same workload at half the service rate never
        queues — waits do not trend with request index."""
        arrivals = np.arange(N) * (_service_s(rep) * 2)
        q = simulate_fifo(arrivals, [STEPS] * N, rep)
        assert q.mean_wait_s == 0.0
        assert q.max_queue_depth == 1
