"""End-to-end service tests: wire protocol, durability, chaos, drain.

Every test here talks to a real in-process :class:`SpmmService` (event
loop + dispatcher thread + worker processes) through the real
:class:`ServiceClient` over the Unix socket.  Digest parity against a
serial :class:`SpmmRuntime` run is the correctness oracle throughout.
"""

import json
import socket
import threading
import time

from repro.cli import main
from repro.errors import ReproError
from repro.gpu import get_config
from repro.matrices import from_spec
from repro.runtime import Planner, SpmmRequest, SpmmRuntime
from repro.runtime.journal import RunJournal, request_fingerprint
from repro.runtime.supervisor import ChaosFault
from repro.service import LADDER, ServiceClient, ServiceState, SpmmService
from repro.service.protocol import service_fingerprint

from .conftest import SPECS


def serial_digest(spec, *, k=8, seed=0, tile_width=64, rung=0):
    """What a plain serial run of the same request must produce."""
    runtime = SpmmRuntime(get_config("gv100"))
    request = SpmmRequest(from_spec(spec), k=k, seed=seed,
                          tile_width=tile_width)
    caps = LADDER[rung]
    if caps is None:
        outcome = runtime.run(request)
    else:
        outcome = runtime.run(request, capabilities=caps,
                              enforce_ladder=True)
    return outcome.record.digest()


def raw_request(socket_path, payload: bytes, timeout=10.0) -> bytes:
    """One raw frame over a fresh connection (for malformed input)."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(payload)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
        return buf


# ----------------------------------------------------------- happy path
def test_submit_matches_serial_digests(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        for spec in SPECS:
            resp = client.submit(spec)
            assert resp["status"] == 200, resp
            result = resp["result"]
            assert result["rung"] == 0 and result["replayed"] is False
            assert result["digest"] == serial_digest(spec)


def test_duplicate_submit_replays_from_journal(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        first = client.submit(SPECS[0])["result"]
        second = client.submit(SPECS[0])["result"]
        assert second["replayed"] is True
        assert second["digest"] == first["digest"]
        health = client.health()
        assert health["counts"]["replayed"] == 1
        assert health["counts"]["completed"] == 1


def test_health_reports_shape(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        client.submit(SPECS[0])
        health = client.health()
        assert health["state"] == "ok"
        assert health["workers"] == 2
        assert set(health["queued"]) == {"interactive", "batch"}
        assert "admission" in health and "cache_slo" in health
        stats = client.stats()
        assert stats["supervisor"]["executed"] >= 1
        assert "service.completed" in stats["metrics"]["counters"]


# -------------------------------------------------------------- bad input
def test_unresolvable_spec_is_400(service_factory, tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3.0\n"
    )
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        resp = client.submit("nope:8:8:0.5")
        assert resp["status"] == 400
        assert "unknown family" in resp["error"]
        # a malformed .mtx is the client's error too, not a quarantine
        resp = client.submit(str(bad))
        assert resp["status"] == 400
        assert "bad real entry" in resp["error"]
        # The service is still alive and serving.
        assert client.health()["state"] == "ok"


def test_raw_invalid_json_is_400(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        client.health()  # socket is definitely up
    for line in (
        b"{this is not json\n",
        b"[" * 60_000 + b"\n",  # nested too deep for the JSON decoder
        b'{"op": "submit", "matrix": "%s", "deadline_s": NaN}\n' % (
            SPECS[0].encode()),
    ):
        resp = json.loads(raw_request(handle.socket_path, line))
        assert resp["status"] == 400
        assert resp["id"] == ""


def test_oversize_request_line_is_400(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        client.health()  # socket is definitely up
    line = b'{"op": "health", "pad": "' + b"x" * 70_000 + b'"}\n'
    resp = json.loads(raw_request(handle.socket_path, line))
    assert resp["status"] == 400
    assert "too large" in resp["error"]
    # only that connection is closed; the server answers a new one
    with ServiceClient(handle.socket_path) as client:
        assert client.health()["state"] == "ok"


# ------------------------------------------------------------- durability
def test_restart_answers_from_journal(service_factory):
    first = service_factory(state_name="durable")
    with ServiceClient(first.socket_path) as client:
        original = client.submit(SPECS[1])["result"]
    summary = first.stop()
    assert summary["completed"] == 1

    second = service_factory(state_name="durable")
    with ServiceClient(second.socket_path) as client:
        resp = client.submit(SPECS[1])["result"]
    assert resp["replayed"] is True
    assert resp["digest"] == original["digest"]


def test_restart_over_damaged_journal_reexecutes_distrusted(service_factory):
    first = service_factory(state_name="damaged")
    with ServiceClient(first.socket_path) as client:
        originals = [client.submit(spec)["result"] for spec in SPECS[:2]]
    first.stop()

    # Zero one entry's digest and leave a torn final append behind.
    path = first.service.state.journal_path
    with open(path) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    for entry in entries:
        if entry["digest"] == originals[0]["digest"]:
            entry["digest"] = "0" * 64
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.write('{"version": 1, "kind": "rec')

    # The distrusted entry's intent is still logged, so recovery
    # re-executes it before any client asks; wait for that, then resubmit.
    second = service_factory(state_name="damaged")
    with ServiceClient(second.socket_path) as client:
        assert client.health()["recovery_pending_at_start"] == 1
        deadline = time.monotonic() + 60.0
        while client.health()["counts"]["recovered"] < 1:
            assert time.monotonic() < deadline, "recovery never completed"
            time.sleep(0.01)
        again = [client.submit(spec)["result"] for spec in SPECS[:2]]
    summary = second.stop()

    assert summary["recovered"] == 1 and summary["completed"] == 1
    assert [r["replayed"] for r in again] == [True, True]
    assert [r["digest"] for r in again] == [r["digest"] for r in originals]
    replay = RunJournal.load(path)
    assert replay.anomalies == [] and len(replay.records) == 2


def test_recovery_reexecutes_accepted_but_unjournaled(
        service_factory, tmp_path):
    # Manufacture the crash window: an intent fsynced to accepted.jsonl
    # with no matching journal record — exactly what a SIGKILL between
    # acceptance and completion leaves behind.  Rung 1, so recovery must
    # also honor the admitted degradation level.
    spec, rung = SPECS[2], 1
    gpu_config = get_config("gv100")
    request = SpmmRequest(from_spec(spec), k=8, seed=0, tile_width=64)
    fp = service_fingerprint(
        request_fingerprint(
            request, gpu_config, Planner(gpu_config, None).ssf_threshold
        ),
        rung,
    )
    state = ServiceState(str(tmp_path / "crashed"))
    state.record_accepted({
        "fingerprint": fp, "tenant": "t", "matrix": spec, "k": 8,
        "seed": 0, "tile_width": 64, "lane": "interactive", "rung": rung,
    })

    handle = service_factory(state_name="crashed")
    with ServiceClient(handle.socket_path) as client:
        health = client.health()
        assert health["recovery_pending_at_start"] == 1
    summary = handle.stop()
    assert summary["recovered"] == 1 and summary["failed"] == 0

    replay = RunJournal.load(state.journal_path)
    records = dict(replay.records)
    assert records[fp].digest() == serial_digest(spec, rung=rung)


# ------------------------------------------------------------------ chaos
def test_worker_kill_is_retried_to_parity(service_factory):
    handle = service_factory(chaos={0: ChaosFault("kill")})
    with ServiceClient(handle.socket_path) as client:
        resp = client.submit(SPECS[0])
        assert resp["status"] == 200
        assert resp["result"]["digest"] == serial_digest(SPECS[0])
        stats = client.stats()["supervisor"]
    assert stats["worker_crashes"] >= 1
    assert stats["retries"] >= 1


def test_dispatcher_death_fails_stranded_requests(service_factory, monkeypatch):
    """A dead dispatcher answers each stranded request 500, counted as failed."""

    class DispatcherBug(BaseException):
        """Escapes every ``except Exception`` on the dispatch path."""

    def plan_handle(self, pend):
        raise DispatcherBug("planning thread crashed")

    monkeypatch.setattr(SpmmService, "_plan_handle", plan_handle)
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        resp = client.submit(SPECS[0])
    assert resp["status"] == 500
    failure = resp["failure"]
    assert (failure["phase"], failure["error_type"]) == (
        "dispatch", "SupervisionError"
    )
    summary = handle.stop()
    assert summary["failed"] == 1
    assert summary["dispatch_error"].startswith("DispatcherBug")
    counters = handle.service.metrics.snapshot()["counters"]
    assert counters["service.failed"] == 1


# --------------------------------------------------------------- demotion
def test_deadline_demotes_down_the_ladder_with_parity(service_factory):
    handle = service_factory()
    svc = handle.service
    with ServiceClient(handle.socket_path) as client:
        # Prime the EWMA as if requests were taking 10 s: an 0.5 s
        # deadline cannot be met even at the bottom rung.
        svc.admission.service_time_s = 10.0
        low = client.submit(SPECS[0], deadline_s=0.5)["result"]
        assert low["rung"] == 2
        assert low["digest"] == serial_digest(SPECS[0], rung=2)

        svc.admission.service_time_s = 10.0
        mid = client.submit(SPECS[0], deadline_s=6.0)["result"]
        assert mid["rung"] == 1
        assert mid["digest"] == serial_digest(SPECS[0], rung=1)

        # Same request without pressure runs at full capability — and the
        # three rungs journal as three distinct identities.
        svc.admission.service_time_s = None
        full = client.submit(SPECS[0], deadline_s=0.5)["result"]
        assert full["rung"] == 0
        assert full["digest"] == serial_digest(SPECS[0])
        fingerprints = {low["fingerprint"], mid["fingerprint"],
                        full["fingerprint"]}
        assert len(fingerprints) == 3

        # A repeat at a demoted rung replays from the journal.
        svc.admission.service_time_s = 10.0
        again = client.submit(SPECS[0], deadline_s=0.5)["result"]
        assert again["rung"] == 2 and again["replayed"] is True


# ------------------------------------------------------------------ drain
def test_drain_endpoint_summarizes_and_refuses_new_work(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        client.submit(SPECS[0])
        summary = client.drain()
    assert summary["completed"] == 1
    assert summary["dispatch_error"] is None
    handle.thread.join(timeout=30.0)
    assert not handle.thread.is_alive()
    # After the drain the socket is gone (or a race answers 503); either
    # way no new work is accepted.
    try:
        with ServiceClient(handle.socket_path, connect_timeout_s=0.5) as c:
            resp = c.submit(SPECS[1])
            assert resp["status"] == 503
    except (ReproError, OSError):
        pass  # connection refused: the listener is already down


# -------------------------------------------------------------------- CLI
def test_cli_serve_serves_and_drains(tmp_path, capsys):
    sock = str(tmp_path / "cli.sock")
    result = {}

    def run():
        result["code"] = main([
            "serve", "--socket", sock,
            "--state-dir", str(tmp_path / "cli-state"),
            "--workers", "1",
        ])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    with ServiceClient(sock) as client:
        resp = client.submit(SPECS[0])
        assert resp["status"] == 200
        client.drain()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert result["code"] == 0
    out = capsys.readouterr().out
    assert "serving on" in out
    assert "drained: 1 completed" in out


# ------------------------------------------------------------ selfcheck
def test_selfcheck_clean_service_is_healthy(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        assert client.submit(SPECS[0])["status"] == 200
        report = client.selfcheck()
        assert report["healthy"] is True
        assert report["segments"]["corrupt"] == {}
        assert report["segments"]["checked"] >= 1
        assert report["durability"]["degraded"] == {}


def test_selfcheck_detects_republishes_and_recovers(service_factory):
    """Corrupt a resident segment: selfcheck flags + republishes it, a
    second selfcheck is healthy again, and a duplicate submit (which now
    rides the republished segment) still matches the serial digest."""
    from repro.resilience import corrupt_segment

    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        clean = client.submit(SPECS[0])["result"]["digest"]
        assert clean == serial_digest(SPECS[0])

        registry = handle.service.operands
        assert registry.descriptors, "expected a resident operand segment"
        token, descriptor = next(iter(registry.descriptors.items()))
        corrupt_segment(descriptor.segment, descriptor.arrays[0].offset)

        report = client.selfcheck()
        assert report["healthy"] is False
        assert token in report["segments"]["corrupt"]
        assert report["segments"]["republished"].get(token) is True
        fresh = registry.descriptors[token]
        assert fresh.segment != descriptor.segment

        assert client.selfcheck()["healthy"] is True

        # Distinct seed forces execution (not a journal replay) over the
        # republished operand bytes — the digest oracle still holds.
        again = client.submit(SPECS[0], seed=1)
        assert again["status"] == 200
        assert again["result"]["digest"] == serial_digest(SPECS[0], seed=1)

        stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["integrity.corruption_detected"] >= 1
        assert counters["integrity.republished"] >= 1


def test_health_and_stats_expose_durability(service_factory):
    handle = service_factory()
    with ServiceClient(handle.socket_path) as client:
        health = client.health()
        assert health["durability"] == {
            "degraded": {}, "lost": {}, "strikes": 0,
        }
        stats = client.stats()
        assert stats["durability"]["strikes"] == 0
