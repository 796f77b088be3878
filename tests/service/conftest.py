"""Shared helpers for the resident-service tests.

``service_factory`` starts a real :class:`SpmmService` — event loop,
dispatcher thread, worker pool, Unix socket — inside the test process,
and guarantees it is drained and joined at teardown whatever the test
did.  Tests talk to it through the real :class:`ServiceClient`, so every
assertion crosses the actual wire protocol.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import supervisor
from repro.runtime.supervisor import SupervisionPolicy
from repro.service import ServiceConfig, SpmmService
from repro.service import server as server_module

#: Fast supervision for tests: short backoff, quick heartbeats.
FAST = dict(backoff_base_s=0.01, heartbeat_interval_s=0.1)

#: Cheap distinct matrix specs (one plan + one execution each).
SPECS = [
    "block_diagonal:48:48:0.08:1",
    "banded:48:48:0.1:2",
    "uniform:40:30:0.1:3",
]


class RunningService:
    """A live in-process service plus its drain summary after teardown."""

    def __init__(self, service: SpmmService, thread: threading.Thread):
        self.service = service
        self.thread = thread
        self.summary: dict | None = None

    @property
    def socket_path(self) -> str:
        return self.service.config.socket_path

    def stop(self, timeout: float = 60.0) -> dict:
        """Drain, join, and return the drain summary (idempotent)."""
        self.service.request_drain()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "service failed to drain"
        return self.summary


@pytest.fixture
def service_factory(tmp_path):
    """Start in-process services; drain every one of them at teardown."""
    running: list[RunningService] = []

    def start(*, workers: int = 2, policy: dict | None = None,
              state_name: str = "state", **config_kw) -> RunningService:
        merged = dict(FAST)
        merged.update(policy or {})
        config = ServiceConfig(
            socket_path=str(tmp_path / f"{state_name}.sock"),
            state_dir=str(tmp_path / state_name),
            workers=workers,
            policy=SupervisionPolicy(**merged),
            **config_kw,
        )
        service = SpmmService(config)
        handle = RunningService(service, None)

        def run():
            handle.summary = service.run()

        thread = threading.Thread(target=run, daemon=True)
        handle.thread = thread
        thread.start()
        running.append(handle)
        return handle

    yield start
    for handle in running:
        handle.stop()


def wait_until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate()`` until it holds; fail after ``timeout`` s."""
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.005)


def queued(service) -> int:
    """Admitted requests not yet dispatched (lanes and windows)."""
    with service._lock:
        return service._queued()[0]


class HeldDispatch:
    """Hold a service's dispatcher so requests queue as they do under load.

    While :meth:`pulls` holds, every pull of the service's item stream
    finds nothing to dispatch (a drain's pulls excepted), so submits wait
    in their lanes exactly as they do while every worker is busy.
    :meth:`workers` stops the supervisor from handing what it pulls to a
    worker, so each pulled unit keeps its room and windows left after a
    pull stay parked.  Each ``release_*`` ends its hold and wakes the
    supervisor.
    """

    def __init__(self, monkeypatch):
        self._pulls_free = threading.Event()
        self._workers_free = threading.Event()
        self._pulls_free.set()
        self._workers_free.set()
        next_unit = server_module.SpmmService._next_unit
        pop = supervisor.WorkerSupervisor._pop_eligible
        pulls, workers = self._pulls_free, self._workers_free
        monkeypatch.setattr(
            server_module.SpmmService, "_next_unit",
            lambda svc: (
                next_unit(svc) if svc._draining or pulls.is_set() else None
            ),
        )
        monkeypatch.setattr(
            supervisor.WorkerSupervisor, "_pop_eligible",
            staticmethod(lambda pending, now: (
                pop(pending, now) if workers.is_set() else None
            )),
        )

    def pulls(self) -> None:
        self._pulls_free.clear()

    def workers(self) -> None:
        self._workers_free.clear()

    def release_pulls(self, service) -> None:
        self._pulls_free.set()
        service.supervisor.wake()

    def release_workers(self, service) -> None:
        self._workers_free.set()
        service.supervisor.wake()


@pytest.fixture
def held(service_factory, monkeypatch):
    """A :class:`HeldDispatch`, released before its services drain."""
    hold = HeldDispatch(monkeypatch)
    yield hold
    hold._pulls_free.set()
    hold._workers_free.set()
