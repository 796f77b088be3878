"""Service-side request coalescing: window mechanics and live fusion.

The scheduler itself is pure logic (unit-tested directly); the live
tests drive a real in-process service with concurrent same-matrix
clients, held so they queue as they do while every worker is busy, and
assert the contract end to end — fewer matrix passes than requests,
per-request digests identical to serial runs, and `coalesce.*` counters
that add up.
"""

import threading

import pytest

from repro.errors import ConfigError
from repro.service import CoalescingScheduler, ServiceClient

from .conftest import SPECS, queued, wait_until
from .test_server import serial_digest

SPEC = SPECS[2]  # uniform:40:30:0.1:3


# --------------------------------------------------------- pure scheduler
class TestCoalescingScheduler:
    def test_window_closes_by_size(self):
        sched = CoalescingScheduler(max_k=16)
        assert sched.add("key", "a", 8, 0.0) == []
        assert sched.add("key", "b", 8, 0.0) == []
        # full: c opens a fresh window behind it
        sched.add("key", "c", 8, 0.0)
        assert sched.pending == 3
        assert sched.pop_ready() == [("key", ["a", "b"])]
        assert sched.pop_ready() == [("key", ["c"])]
        assert sched.pending == 0

    def test_overflow_starts_a_fresh_window(self):
        sched = CoalescingScheduler(max_k=16)
        sched.add("key", "a", 10, 0.0)
        sched.add("key", "b", 10, 0.0)
        # b would overflow a's window: a leaves alone, b waits behind it
        assert sched.oldest() == ["a"]
        assert sched.pop_ready() == [("key", ["a"])]
        assert sched.pop_ready() == [("key", ["b"])]

    def test_full_window_keeps_its_place(self):
        sched = CoalescingScheduler(max_k=16)
        sched.add("k1", "a", 8, 0.0)
        sched.add("k2", "b", 8, 0.0)
        sched.add("k1", "c", 8, 0.0)  # k1 is full, and still the oldest
        sched.add("k1", "d", 8, 0.0)  # a new k1 window, the youngest
        assert sched.pop_ready(flush_all=True) == [
            ("k1", ["a", "c"]), ("k2", ["b"]), ("k1", ["d"]),
        ]

    def test_pop_ready_closes_the_oldest_window(self):
        sched = CoalescingScheduler(max_k=64)
        sched.add("k1", "a", 8, 0.0)
        sched.add("k2", "b", 8, 0.0)
        sched.add("k1", "c", 8, 0.0)  # joins the older window
        assert sched.oldest() == ["a", "c"]
        assert sched.pop_ready() == [("k1", ["a", "c"])]
        assert sched.pop_ready() == [("k2", ["b"])]
        assert sched.pop_ready() == [] and sched.oldest() is None

    def test_age_is_set_by_the_first_member(self):
        sched = CoalescingScheduler(max_k=64)
        sched.add("k1", "a", 8, 0.0)
        sched.add("k2", "b", 8, 0.0)
        assert sched.pop_ready() == [("k1", ["a"])]
        sched.add("k1", "c", 8, 0.0)  # a reopened key is young again
        sched.add("k2", "d", 8, 0.0)  # a late member does not age k2
        assert sched.pop_ready() == [("k2", ["b", "d"])]
        assert sched.pop_ready() == [("k1", ["c"])]

    def test_flush_all_closes_every_window_oldest_first(self):
        sched = CoalescingScheduler(max_k=64)
        sched.add("k2", "a", 8, 0.0)
        sched.add("k1", "b", 8, 0.0)
        assert sched.pop_ready(flush_all=True) == [
            ("k2", ["a"]), ("k1", ["b"]),
        ]
        assert sched.pending == 0

    def test_validation(self):
        with pytest.raises(ConfigError, match="max_k"):
            CoalescingScheduler(max_k=0)


# ------------------------------------------------------------ live service
def _concurrent_submits(socket_path, seeds, *, spec=SPEC, unblock=None):
    """Submit one request per seed from concurrent client threads.

    ``unblock()``, when given, runs once every thread has started (it
    waits for the submits to queue, then lets them dispatch).
    """
    results: dict[int, dict] = {}
    errors: list = []

    def one(seed):
        try:
            with ServiceClient(socket_path) as client:
                results[seed] = client.submit(spec, seed=seed)
        except Exception as exc:  # surfaced by the caller's assert
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    if unblock is not None:
        unblock()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def test_concurrent_same_matrix_requests_fuse(service_factory, held):
    # Requests that queue while no worker can take them share a window.
    handle = service_factory()
    svc = handle.service
    held.pulls()
    seeds = list(range(6))

    def unblock():
        wait_until(lambda: queued(svc) == len(seeds))
        held.release_pulls(svc)

    results = _concurrent_submits(handle.socket_path, seeds, unblock=unblock)
    for seed in seeds:
        result = results[seed]["result"]
        assert results[seed]["status"] == 200
        assert result["digest"] == serial_digest(SPEC, seed=seed)
    with ServiceClient(handle.socket_path) as client:
        stats = client.stats()
    counters = stats["metrics"]["counters"]
    completed = counters["service.completed"]
    assert completed == len(seeds)
    # the tentpole economics: fewer sparse-stream passes than requests
    assert counters["coalesce.matrix_passes"] < completed
    assert counters.get("coalesce.fused_windows", 0) >= 1
    fused = counters.get("coalesce.fused_requests", 0)
    saved = counters.get("coalesce.passes_saved", 0)
    assert fused >= 2 and saved == fused - counters["coalesce.fused_windows"]
    assert (
        counters["coalesce.matrix_passes"] + saved == completed
    )


def test_coalescing_disabled_dispatches_solo(service_factory):
    handle = service_factory(coalesce=False)
    results = _concurrent_submits(handle.socket_path, [0, 1, 2])
    for seed in (0, 1, 2):
        assert results[seed]["status"] == 200
        assert (
            results[seed]["result"]["digest"]
            == serial_digest(SPEC, seed=seed)
        )
    with ServiceClient(handle.socket_path) as client:
        counters = client.stats()["metrics"]["counters"]
    assert counters["coalesce.matrix_passes"] == 3
    assert "coalesce.fused_windows" not in counters


def test_drain_flushes_open_windows(service_factory, held):
    """Requests parked in a window when drain lands still complete."""
    # One held worker: the pull that takes the oldest window (a request
    # on another matrix) leaves the two same-matrix requests parked.
    handle = service_factory(workers=1)
    svc = handle.service
    held.pulls()
    held.workers()
    submits = [(SPECS[0], 9), (SPEC, 0), (SPEC, 1)]
    results: dict[int, dict] = {}

    def one(spec, seed):
        with ServiceClient(handle.socket_path) as client:
            results[seed] = client.submit(spec, seed=seed)

    threads = []
    for spec, seed in submits:
        threads.append(threading.Thread(target=one, args=(spec, seed)))
        threads[-1].start()
        wait_until(lambda n=len(threads): queued(svc) == n)
    held.release_pulls(svc)
    wait_until(lambda: svc._coalescer.pending == 2)
    # the drain dispatches the parked window before it ends, fused
    svc.request_drain()
    held.release_workers(svc)
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    summary = handle.stop()
    assert summary["completed"] == 3
    for spec, seed in submits:
        assert results[seed]["status"] == 200
        assert (
            results[seed]["result"]["digest"]
            == serial_digest(spec, seed=seed)
        )
    counters = svc.metrics.snapshot()["counters"]
    assert counters["coalesce.fused_windows"] == 1
