"""Event-driven, work-conserving dispatch: no request waits on a tick.

The latency tests raise the supervisor's tick to 2 s and turn heartbeats
off, so a path that still needs a tick to make progress (a queued
request noticed by polling, a drain flag read on the next tick) takes
about 2 s.  Lane appends and drains wake the supervisor instead, and a
worker with room takes the oldest window at once, so each of those
replies arrives well inside ``BUDGET_S``.  The coalescing tests hold the
dispatcher (``HeldDispatch``) so a burst queues as it does while every
worker is busy.  The rest check dispatch order, that requests parked in
windows still count as backlog, and that a generator spec's matrix is
built once.
"""

import sys
import threading
import time

import pytest

from repro.formats import write_matrix_market
from repro.matrices import from_spec
from repro.runtime import supervisor
from repro.service import ServiceClient
from repro.service import server as server_module
from repro.service.admission import AdmissionConfig

from .conftest import SPECS, queued, wait_until
from .test_server import serial_digest

#: the latency budget: a quarter of one raised tick
BUDGET_S = 0.5

SPEC = SPECS[2]


@pytest.fixture
def start(service_factory, monkeypatch):
    """A service whose only wake-ups are events: 2 s tick, no heartbeats.

    Before returning it serves one untimed request, so the timed ones
    meet a warm process and a supervisor idle in its wait.
    """
    monkeypatch.setattr(supervisor, "_TICK_S", 2.0)

    def _start(**config_kw):
        handle = service_factory(policy={"heartbeat_interval_s": 0},
                                 **config_kw)
        with ServiceClient(handle.socket_path) as client:
            assert client.submit(SPECS[0], seed=99)["status"] == 200
        return handle

    return _start


def _timed_submit(socket_path, seed, out=None, barrier=None):
    with ServiceClient(socket_path) as client:
        if barrier is not None:
            barrier.wait(timeout=10)
        t0 = time.monotonic()
        resp = client.submit(SPEC, seed=seed)
        elapsed = time.monotonic() - t0
    if out is not None:
        out[seed] = (resp, elapsed)
    return resp, elapsed


def _submit(socket_path, spec, deadline_s=None, seed=0, out=None,
            lane="interactive"):
    with ServiceClient(socket_path) as client:
        resp = client.submit(spec, seed=seed, deadline_s=deadline_s,
                             lane=lane)
    if out is not None:
        out[seed] = resp
    return resp


def _counters(socket_path) -> dict:
    with ServiceClient(socket_path) as client:
        return client.stats()["metrics"]["counters"]


def test_lone_submit_without_coalescing(start):
    handle = start(coalesce=False)
    resp, elapsed = _timed_submit(handle.socket_path, seed=1)
    assert resp["status"] == 200
    assert resp["result"]["digest"] == serial_digest(SPEC, seed=1)
    assert elapsed < BUDGET_S


def test_lone_submit_with_idle_workers_skips_the_window(start):
    # A window has no timer: with a worker free, the request's window is
    # the oldest, so it closes on the pull its admission wakes.
    handle = start(coalesce_window_ms=10_000.0)
    resp, elapsed = _timed_submit(handle.socket_path, seed=1)
    assert resp["status"] == 200
    assert resp["result"]["digest"] == serial_digest(SPEC, seed=1)
    assert elapsed < BUDGET_S


def test_concurrent_same_matrix_submits_fuse_into_one_window(start, held):
    handle = start()
    before = _counters(handle.socket_path)
    held.pulls()
    seeds = [1, 2, 3, 4]
    out: dict = {}
    barrier = threading.Barrier(len(seeds))
    threads = [
        threading.Thread(target=_timed_submit,
                         args=(handle.socket_path, seed, out, barrier))
        for seed in seeds
    ]
    for t in threads:
        t.start()
    wait_until(lambda: queued(handle.service) == len(seeds))
    held.release_pulls(handle.service)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for seed in seeds:
        resp, _ = out[seed]
        assert resp["status"] == 200
        assert resp["result"]["digest"] == serial_digest(SPEC, seed=seed)
    after = _counters(handle.socket_path)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("coalesce.fused_windows") == 1
    assert delta("coalesce.fused_requests") == len(seeds)
    assert delta("coalesce.matrix_passes") == 1


@pytest.mark.parametrize("submits, order", [
    # A demoted request admitted before a run of rung-0 windows is
    # dispatched before all of them: units leave in admission order.
    ([(SPECS[0], "interactive", 30.0), (SPECS[1], "interactive", None),
      (SPECS[2], "batch", None)],
     [(0, 2), (1, 0), (2, 0)]),
    # A window is weighed against the request lane priority puts next,
    # not against an older one further back: an older demoted batch
    # request cannot let later interactive ones jump the window.
    ([(SPECS[0], "batch", 30.0), (SPECS[1], "interactive", None),
      (SPECS[2], "interactive", 30.0)],
     [(1, 0), (2, 2), (0, 2)]),
], ids=["before-windows", "behind-lane-priority"])
def test_demoted_request_leaves_before_later_windows(start, held,
                                                     monkeypatch, submits,
                                                     order):
    # Each submit is (spec, lane, deadline_s): a deadline demotes it to
    # rung 2, none keeps it at rung 0.  ``order`` lists (place in
    # ``submits``, rung) per planned request, in planning order.
    monkeypatch.setattr(
        server_module.AdmissionController, "choose_rung",
        lambda self, deadline_s, *, backlog: 0 if deadline_s is None else 2,
    )
    planned = []
    plan_handle = server_module.SpmmService._plan_handle

    def recording(self, pend):
        planned.append((pend.index, pend.rung))
        return plan_handle(self, pend)

    handle = start()
    svc = handle.service
    monkeypatch.setattr(server_module.SpmmService, "_plan_handle", recording)
    held.pulls()
    threads = []
    for n, (spec, lane, deadline) in enumerate(submits, start=1):
        threads.append(threading.Thread(target=_submit, args=(
            handle.socket_path, spec, deadline), kwargs={"lane": lane}))
        threads[-1].start()
        wait_until(lambda n=n: queued(svc) == n)
    held.release_pulls(svc)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    first = min(index for index, _ in planned)
    assert [(index - first, rung) for index, rung in planned] == order


def test_drain_is_prompt(start):
    handle = start()
    t0 = time.monotonic()
    with ServiceClient(handle.socket_path) as client:
        summary = client.drain()
    assert time.monotonic() - t0 < BUDGET_S
    assert summary["completed"] == 1
    handle.thread.join(timeout=10)
    assert not handle.thread.is_alive()


def test_parked_requests_count_toward_backpressure(service_factory, held):
    # One worker, held: the pull that takes the first request's window
    # leaves the second parked.  With a 2-deep admission window the
    # parked request and one queued behind it are the whole backlog, so
    # a fourth submit must be shed, not admitted past a backlog
    # admission cannot see.
    admission = AdmissionConfig(max_pending=2, tenant_rate=10_000.0,
                                tenant_burst=10_000)
    handle = service_factory(admission=admission, workers=1)
    svc = handle.service
    held.pulls()
    held.workers()
    out: dict = {}
    threads = []
    for spec, seed in ((SPECS[0], 1), (SPEC, 2)):
        threads.append(threading.Thread(
            target=_submit, args=(handle.socket_path, spec, None, seed, out)))
        threads[-1].start()
        wait_until(lambda n=len(threads): queued(svc) == n)
    held.release_pulls(svc)
    wait_until(lambda: svc._coalescer.pending == 1 and queued(svc) == 1)
    threads.append(threading.Thread(
        target=_submit, args=(handle.socket_path, SPEC, None, 3, out)))
    threads[-1].start()
    wait_until(lambda: queued(svc) == 2)
    with ServiceClient(handle.socket_path) as client:
        resp = client.submit(SPEC, seed=4)
    assert resp["status"] == 429 and resp["reason"] == "backpressure"
    held.release_workers(svc)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert [out[seed]["status"] for seed in (1, 2, 3)] == [200, 200, 200]


def test_backlog_accounting_survives_a_submit_storm(service_factory):
    # More submitting threads than cores and a 1 us switch interval: a
    # lost update to the lane/window accounting would leave phantom
    # backlog behind once every reply is in.
    admission = AdmissionConfig(tenant_rate=10_000.0, tenant_burst=10_000)
    handle = service_factory(admission=admission)
    seeds = range(16)
    out: dict = {}
    threads = [
        threading.Thread(target=_timed_submit,
                         args=(handle.socket_path, seed, out))
        for seed in seeds
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        resp, _ = out[seed]
        assert resp["status"] == 200
        assert resp["result"]["digest"] == serial_digest(SPEC, seed=seed)
    svc = handle.service
    with svc._lock:
        assert svc._queued() == (0, 0)
        assert not svc._inflight
        assert svc._coalescer.pending == 0


# ------------------------------------------------- building matrices once
def _count_from_spec(monkeypatch) -> list:
    calls = []

    def counting(spec, **kw):
        calls.append(spec)
        return from_spec(spec, **kw)

    monkeypatch.setattr(server_module, "from_spec", counting)
    return calls


def test_generator_spec_is_built_once(service_factory, monkeypatch):
    calls = _count_from_spec(monkeypatch)
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        for seed in (1, 2):
            resp = client.submit(SPEC, seed=seed)
            assert resp["status"] == 200
            assert resp["result"]["digest"] == serial_digest(SPEC, seed=seed)
    assert calls == [SPEC]


def test_mtx_path_is_read_on_every_submit(service_factory, monkeypatch,
                                          tmp_path):
    path = str(tmp_path / "a.mtx")
    write_matrix_market(from_spec(SPEC), path)
    calls = _count_from_spec(monkeypatch)
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        for seed in (1, 2):
            assert client.submit(path, seed=seed)["status"] == 200
    assert calls == [path, path]
