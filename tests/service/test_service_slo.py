"""Service-level SLO contract under sustained overload (rho > 1).

The queueing model in ``engine/queueing.py`` says an open system with
arrival pressure above capacity must either shed or grow its queue
without bound.  The contract pinned here: the service sheds with a
truthful Retry-After, the backlog stays inside the admission window,
every admitted request completes digest-identical to a serial run (at
the rung it was admitted at), and tail latency stays bounded by the
window rather than the offered load.
"""

import threading
import time

from repro.service import ServiceClient
from repro.service.admission import AdmissionConfig

from .conftest import SPECS
from .test_server import serial_digest


def _storm(socket_path, spec, seeds, deadline_s, out, barrier):
    """One submitting thread: its own client, distinct seeds, no retry."""
    with ServiceClient(socket_path) as client:
        barrier.wait()  # all threads fire their first submit together
        for seed in seeds:
            start = time.monotonic()
            resp = client.submit(spec, seed=seed, deadline_s=deadline_s)
            out.append((seed, resp, time.monotonic() - start))


def test_sustained_overload_sheds_instead_of_queueing(service_factory):
    # One worker and a 2-deep window against 12 simultaneous submitters:
    # rho is far above 1 by construction, so shedding is not a timing
    # accident but the only admissible outcome.
    admission = AdmissionConfig(
        max_pending=2,
        target_wait_s=0.2,
        tenant_rate=10_000.0,
        tenant_burst=10_000,
    )
    handle = service_factory(workers=1, admission=admission)
    spec = SPECS[0]

    responses = []
    threads = []
    barrier = threading.Barrier(12)
    seed = 0
    for t in range(12):
        seeds = list(range(seed, seed + 2))
        seed += 2
        deadline = 0.05 if t % 3 == 0 else None  # a third demotion-eligible
        thread = threading.Thread(
            target=_storm,
            args=(handle.socket_path, spec, seeds, deadline, responses,
                  barrier),
        )
        threads.append(thread)
    for thread in threads:
        thread.start()

    # While the storm runs, the backlog must stay inside the admission
    # window: queued <= max_pending, never the offered load (24 submits).
    # Queued means admitted and not yet dispatched, wherever it waits: in
    # a lane, in an open coalescing window, or in a closed window not yet
    # handed to the supervisor.
    svc = handle.service
    max_queued = 0
    while any(t.is_alive() for t in threads):
        with svc._lock:
            queued = sum(len(q) for q in svc._lanes.values())
            queued += svc._coalescer.pending
            queued += sum(len(members) for _, members in svc._closed)
        max_queued = max(max_queued, queued)
        for thread in threads:
            thread.join(timeout=0.01)
    assert max_queued <= admission.max_pending

    completed = [(s, r, el) for s, r, el in responses if r["status"] == 200]
    shed = [r for _, r, _ in responses if r["status"] == 429]
    assert len(completed) + len(shed) == len(responses) == 24
    assert completed, "overload must not starve everyone"

    # Sheds carry a truthful Retry-After and a named reason.
    assert shed, "rho > 1 with a 4-deep window must shed"
    for resp in shed:
        assert resp["retry_after_s"] > 0.0
        assert resp["reason"] in ("backpressure", "quota")
    counters = svc.admission.counters
    assert counters["shed_backpressure"] >= 1

    # Every admitted request is digest-identical to a serial run at the
    # rung it was admitted at — degradation changes the plan, never the
    # arithmetic contract.
    for seed_val, resp, _ in completed:
        result = resp["result"]
        assert result["digest"] == serial_digest(
            spec, seed=seed_val, rung=result["rung"]
        )

    # Tail latency is bounded by the window draining, not the storm:
    # with <= 4 queued + 2 in flight ahead of any admitted request, the
    # worst admitted wait stays far below what the full storm would take
    # serially.
    latencies = sorted(el for _, _, el in completed)
    assert latencies[-1] < 30.0


def test_quota_isolates_tenants_under_load(service_factory):
    admission = AdmissionConfig(
        max_pending=64, tenant_rate=0.001, tenant_burst=1
    )
    handle = service_factory(admission=admission)
    spec = SPECS[1]
    with ServiceClient(handle.socket_path) as client:
        ok = client.submit(spec, tenant="greedy", seed=1)
        assert ok["status"] == 200
        shed = client.submit(spec, tenant="greedy", seed=2)
        assert shed["status"] == 429 and shed["reason"] == "quota"
        assert shed["retry_after_s"] > 100.0  # truthful: ~1000 s/token
        other = client.submit(spec, tenant="patient", seed=3)
        assert other["status"] == 200
        health = client.health()
        assert health["counts"]["shed"] == 1
        tenants = health["admission"]["tenants"]
        assert tenants["greedy"]["consecutive_sheds"] == 1
