"""Event-driven dispatch: no request waits on the supervisor's poll tick.

The latency tests raise the supervisor's tick to 2 s and turn heartbeats
off, so a path that still needs a tick to make progress (a queued
request noticed by polling, a window deadline noticed late, a drain flag
read on the next tick) takes about 2 s.  Lane appends and drains wake
the supervisor instead, and it waits no longer than the earliest window
deadline, so each of those replies arrives well inside ``BUDGET_S``.
The rest check that requests parked in windows still count as backlog
and that a generator spec's matrix is built once.
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

from .conftest import SPECS
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


def _counters(socket_path) -> dict:
    with ServiceClient(socket_path) as client:
        return client.stats()["metrics"]["counters"]


def test_lone_submit_without_coalescing(start):
    handle = start(coalesce=False)
    resp, elapsed = _timed_submit(handle.socket_path, seed=1)
    assert resp["status"] == 200
    assert resp["result"]["digest"] == serial_digest(SPEC, seed=1)
    assert elapsed < BUDGET_S


def test_lone_submit_waits_out_exactly_its_window(start):
    handle = start(coalesce_window_ms=100.0)
    resp, elapsed = _timed_submit(handle.socket_path, seed=1)
    assert resp["status"] == 200
    assert resp["result"]["digest"] == serial_digest(SPEC, seed=1)
    # held for company until the deadline, then dispatched on time
    assert 0.1 <= elapsed < BUDGET_S


def test_concurrent_same_matrix_submits_fuse_into_one_window(start):
    handle = start(coalesce_window_ms=200.0)
    before = _counters(handle.socket_path)
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
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for seed in seeds:
        resp, elapsed = out[seed]
        assert resp["status"] == 200
        assert resp["result"]["digest"] == serial_digest(SPEC, seed=seed)
        assert elapsed < BUDGET_S
    after = _counters(handle.socket_path)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("coalesce.fused_windows") == 1
    assert delta("coalesce.fused_requests") == len(seeds)
    assert delta("coalesce.matrix_passes") == 1


def test_drain_is_prompt(start):
    handle = start(coalesce_window_ms=100.0)
    t0 = time.monotonic()
    with ServiceClient(handle.socket_path) as client:
        summary = client.drain()
    assert time.monotonic() - t0 < BUDGET_S
    assert summary["completed"] == 1
    handle.thread.join(timeout=10)
    assert not handle.thread.is_alive()


def test_parked_requests_count_toward_backpressure(service_factory):
    # Two requests sit in a 10 s window; with a 2-deep admission window a
    # third must be shed, not admitted past a backlog admission cannot see.
    admission = AdmissionConfig(max_pending=2, tenant_rate=10_000.0,
                                tenant_burst=10_000)
    handle = service_factory(admission=admission,
                             coalesce_window_ms=10_000.0)
    svc = handle.service
    out: dict = {}
    threads = [
        threading.Thread(target=_timed_submit,
                         args=(handle.socket_path, seed, out))
        for seed in (1, 2)
    ]
    for t in threads:
        t.start()
    give_up = time.monotonic() + 10
    while svc._coalescer.pending < 2 and time.monotonic() < give_up:
        time.sleep(0.01)
    assert svc._coalescer.pending == 2
    with ServiceClient(handle.socket_path) as client:
        resp = client.submit(SPEC, seed=3)
    assert resp["status"] == 429 and resp["reason"] == "backpressure"
    svc.request_drain()  # flushes the window
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert [out[seed][0]["status"] for seed in (1, 2)] == [200, 200]


def test_backlog_accounting_survives_a_submit_storm(service_factory):
    # More submitting threads than cores and a 1 us switch interval: a
    # lost update to the lane/window accounting would leave phantom
    # backlog behind once every reply is in.
    admission = AdmissionConfig(tenant_rate=10_000.0, tenant_burst=10_000)
    handle = service_factory(admission=admission, coalesce_window_ms=20.0)
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
        assert not svc._inflight and not svc._closed
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
