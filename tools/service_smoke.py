#!/usr/bin/env python3
"""Outside-in smoke for the resident SpMM service (CI ``service-smoke``).

The service *test suite* drives an in-process server; this tool is the
external complement: it launches a real ``python -m repro serve``
subprocess and walks the full crash matrix from the outside:

1. **Worker SIGKILL mid-stream** — two tenants submit a mixed
   interactive/batch workload over the Unix socket while one of the
   server's worker children is SIGKILLed (found via ``/proc``).  Every
   non-shed request must come back 200 with a digest identical to a
   serial in-process run.
2. **Server SIGKILL mid-stream** — the whole server is SIGKILLed with
   requests in flight, then restarted on the same state directory.  Its
   worker children must exit with it (none still running 5 s later).
   The restart must re-execute ``accepted - journaled``; afterwards
   every intent in the accepted log must be journaled digest-identical
   to serial.  No silent loss.
3. **SIGTERM drain** — the restarted server is SIGTERMed and must exit 0
   with a drain summary on stdout.
4. **Coalescing round-trip** — concurrent same-matrix clients; those
   that queue while both workers are busy share a window.  The fused
   pass count (``coalesce.matrix_passes``) must come in below the
   request count, and every per-request digest must still equal its
   serial run.

Exit status: 0 when the whole matrix holds, nonzero otherwise.
"""

import json
import os
import signal
import socket as socketlib
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.gpu import get_config  # noqa: E402
from repro.matrices import from_spec  # noqa: E402
from repro.runtime import SpmmRequest, SpmmRuntime  # noqa: E402
from repro.service import LADDER, ServiceClient  # noqa: E402

SPEC = "uniform:1200:900:0.05:{seed}"
K = 128


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def serial_digest(spec, k, seed, tile_width=64, rung=0):
    """The serial in-process reference digest for one request."""
    runtime = SpmmRuntime(get_config("gv100"))
    request = SpmmRequest(from_spec(spec), k=k, seed=seed,
                          tile_width=tile_width)
    caps = LADDER[rung]
    if caps is None:
        return runtime.run(request).record.digest()
    return runtime.run(
        request, capabilities=caps, enforce_ladder=True
    ).record.digest()


def children_of(pid):
    """Direct child PIDs of ``pid``, via /proc (Linux only)."""
    kids = []
    task_dir = f"/proc/{pid}/task"
    try:
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children") as fh:
                kids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return kids


def running(pid):
    """Whether ``pid`` exists and is not a zombie, via /proc (Linux only)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def start_server(sock, state_dir, *extra):
    """Launch ``python -m repro serve`` and wait for the socket."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", sock, "--state-dir", state_dir,
         "--workers", "2", "--max-retries", "3", *extra],
        env=env, cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            _, err = proc.communicate()
            fail(f"server died on startup: {err.strip()}")
        try:
            probe = socketlib.socket(socketlib.AF_UNIX)
            probe.connect(sock)
            probe.close()
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    fail("server socket never appeared")


def tenant_workload(sock, tenant, seeds, lane, out):
    """One tenant's submission thread (errors recorded, not raised)."""
    try:
        with ServiceClient(sock, timeout_s=300.0) as client:
            for seed in seeds:
                resp = client.submit(SPEC.format(seed=seed), tenant=tenant,
                                     k=K, seed=seed, lane=lane)
                out.append((seed, resp))
    except Exception as exc:  # server killed under us (phase 2)
        out.append((None, {"status": "error", "error": str(exc)}))


def phase_worker_kill(tmp):
    print("== phase 1: two-tenant workload, worker SIGKILL mid-stream ==")
    sock = os.path.join(tmp, "svc.sock")
    state = os.path.join(tmp, "state")
    proc = start_server(sock, state)

    results_a, results_b = [], []
    threads = [
        threading.Thread(target=tenant_workload,
                         args=(sock, "alice", range(0, 6),
                               "interactive", results_a)),
        threading.Thread(target=tenant_workload,
                         args=(sock, "bob", range(6, 12), "batch",
                               results_b)),
    ]
    for t in threads:
        t.start()

    killed = None
    while any(t.is_alive() for t in threads):
        if killed is None:
            workers = children_of(proc.pid)
            if workers:
                time.sleep(0.2)  # let one get a request in flight
                try:
                    os.kill(workers[0], signal.SIGKILL)
                    killed = workers[0]
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    for t in threads:
        t.join()
    if killed:
        print(f"   SIGKILLed worker pid {killed}")
    else:
        print("   WARNING: no worker caught in time; parity still checked")

    completed = shed = 0
    for seed, resp in results_a + results_b:
        if resp["status"] == 429:
            shed += 1
            continue
        if resp["status"] != 200:
            fail(f"seed {seed}: unexpected response {resp}")
        want = serial_digest(SPEC.format(seed=seed), K, seed,
                             rung=resp["result"]["rung"])
        if resp["result"]["digest"] != want:
            fail(f"seed {seed}: digest mismatch vs serial")
        completed += 1
    print(f"   {completed} completed with digest parity, {shed} shed")
    if completed == 0:
        fail("workload produced no completions")

    print("== phase 1b: SIGTERM drain ==")
    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not drain on SIGTERM")
    if proc.returncode != 0:
        fail(f"drain exited {proc.returncode}: {err.strip()}")
    if "drained:" not in out:
        fail(f"no drain summary on stdout: {out!r}")
    print(f"   {out.strip().splitlines()[-1]}")


def phase_server_kill(tmp):
    print("== phase 2: server SIGKILL mid-stream, restart, recover ==")
    sock = os.path.join(tmp, "svc2.sock")
    state = os.path.join(tmp, "state2")
    proc = start_server(sock, state)

    results = []
    thread = threading.Thread(
        target=tenant_workload,
        args=(sock, "carol", range(20, 24), "interactive", results),
        daemon=True,
    )
    thread.start()
    accepted_path = os.path.join(state, "accepted.jsonl")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(accepted_path) and os.path.getsize(accepted_path):
            break
        time.sleep(0.01)
    else:
        fail("no intent was ever accepted")
    children = children_of(proc.pid)
    proc.kill()  # SIGKILL: no cleanup, no drain
    proc.wait()
    # Worker children inherit the output pipes and may outlive the server
    # for a moment, so communicate() could block on their EOF; close our
    # ends directly instead.
    for pipe in (proc.stdout, proc.stderr):
        pipe.close()
    thread.join(timeout=30)
    print("   SIGKILLed the server with requests in flight")
    deadline = time.monotonic() + 5
    while any(map(running, children)) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in children if running(pid)]
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if orphans:
        fail(f"server children {orphans} outlived the server by 5 s")
    print(f"   all {len(children)} server children exited with it")

    with open(accepted_path) as fh:
        accepted = [json.loads(line) for line in fh if line.strip()]
    if not accepted:
        fail("accepted log is empty after the kill")

    proc = start_server(sock, state)
    with ServiceClient(sock, timeout_s=300.0) as client:
        health = client.health()
        print(f"   restarted: recovery_pending_at_start="
              f"{health['recovery_pending_at_start']}")
        summary = client.drain()
    proc.communicate(timeout=120)
    if proc.returncode != 0:
        fail(f"restarted server exited {proc.returncode}")

    journal = {}
    with open(os.path.join(state, "journal.jsonl")) as fh:
        for line in fh:
            if line.strip():
                doc = json.loads(line)
                journal[doc["fingerprint"]] = doc["digest"]
    for intent in accepted:
        fp = intent["fingerprint"]
        if fp not in journal:
            fail(f"accepted intent {fp[:12]} never journaled: silent loss")
        want = serial_digest(intent["matrix"], intent["k"], intent["seed"],
                             intent["tile_width"], intent["rung"])
        if journal[fp] != want:
            fail(f"recovered intent {fp[:12]} digest mismatch vs serial")
    print(f"   {len(accepted)} accepted intents all journaled "
          f"digest-identical to serial (recovered={summary['recovered']})")


def phase_coalesce(tmp):
    print("== phase 3: coalescing round-trip, concurrent same-matrix "
          "clients ==")
    sock = os.path.join(tmp, "svc3.sock")
    state = os.path.join(tmp, "state3")
    proc = start_server(sock, state)

    spec = SPEC.format(seed=42)  # one matrix, six dense operands
    seeds = list(range(6))
    results = {}
    errors = []

    def one(seed):
        try:
            with ServiceClient(sock, timeout_s=300.0) as client:
                results[seed] = client.submit(spec, tenant="dave", k=K,
                                              seed=seed, lane="interactive")
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail(f"coalescing workload errored: {errors}")

    for seed in seeds:
        resp = results[seed]
        if resp["status"] != 200:
            fail(f"coalesce seed {seed}: unexpected response {resp}")
        want = serial_digest(spec, K, seed, rung=resp["result"]["rung"])
        if resp["result"]["digest"] != want:
            fail(f"coalesce seed {seed}: digest mismatch vs serial")

    with ServiceClient(sock, timeout_s=60.0) as client:
        stats = client.stats()
    counters = stats["metrics"]["counters"]
    completed = counters.get("service.completed", 0)
    passes = counters.get("coalesce.matrix_passes", 0)
    windows = counters.get("coalesce.fused_windows", 0)
    saved = counters.get("coalesce.passes_saved", 0)
    if completed != len(seeds):
        fail(f"expected {len(seeds)} completions, saw {completed}")
    if passes >= completed:
        fail(f"no fusion: {passes} matrix passes for {completed} requests")
    if windows < 1:
        fail("no fused window was ever dispatched")
    if passes + saved != completed:
        fail(f"pass accounting broken: {passes} + {saved} != {completed}")
    print(f"   {completed} requests in {passes} matrix passes "
          f"({windows} fused windows, {saved} passes saved), digest parity")

    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("coalescing server did not drain on SIGTERM")
    if proc.returncode != 0:
        fail(f"coalescing drain exited {proc.returncode}: {err.strip()}")


def main():
    tmp = tempfile.mkdtemp(prefix="service-smoke-")
    phase_worker_kill(tmp)
    phase_server_kill(tmp)
    phase_coalesce(tmp)
    print("OK: worker kill, server kill/restart, SIGTERM drain, and the "
          "coalescing round-trip all preserved the no-silent-loss and "
          "digest-parity contracts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
