#!/usr/bin/env python3
"""End-to-end SpMM benchmark: warm in-process reruns and an open-loop service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_rerun --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the workload untraced and then again with the
per-layer span wrappers (``layers.py``), and reports the per-layer
metrics plus the tracing overhead on the end-to-end timings.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checkout
import inputs
import layers
from oracle import Oracle, modeled_speedup_geomean

PROGRAM = os.path.join(checkout.HERE, "program.py")
WORK_ROOT = ".perfbench-work"

#: service_open: number of identical restarts timed for setup_s
SERVICE_RESTARTS = 5
#: service_open: length of the closed-loop capacity probe that follows the
#: open loop, as a share of ``--seconds``
PROBE_SHARE = 0.25
CHILD_TIMEOUT_S = 150.0

#: planner branch of a service reply's executed variant: c_stationary_best
#: runs the faster of csr and dcsr.  (The reply's ``algorithm`` is the
#: kernel's tag, e.g. ``csr_c_stationary``, not the planner branch.)
BRANCH = {"csr": "c_stationary_best", "dcsr": "c_stationary_best"}


class BenchError(RuntimeError):
    """The workload could not be driven to the end."""


def pct(values, q: float) -> float:
    """The q-th percentile (inclusive linear interpolation)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------- processes
class Child:
    """A program process in its own session; killed with its workers on exit."""

    def __init__(self, argv, work, name):
        self.name = name
        self.log = open(os.path.join(work, f"{name}.log"), "w")
        self.out_path = os.path.join(work, f"{name}.out")
        self.out = open(self.out_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, PROGRAM, *argv],
            env=checkout.child_env(work),
            stdout=self.out,
            stderr=self.log,
            start_new_session=True,
            text=True,
        )

    def result(self, timeout_s: float = CHILD_TIMEOUT_S) -> dict:
        """Wait for exit and parse the last stdout line."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name} did not finish in {timeout_s:g}s")
        if self.proc.returncode != 0:
            raise BenchError(f"{self.name} exited {self.proc.returncode}: "
                             f"{self.tail()}")
        self.out.close()
        with open(self.out_path) as fh:
            lines = fh.read().strip().splitlines()
        return json.loads(lines[-1] if lines else "")

    def tail(self) -> str:
        self.log.flush()
        with open(self.log.name) as fh:
            return fh.read()[-2000:].strip()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.out.close()
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------- warm_rerun
def warm_rerun(seed, seconds, work, oracle, trace_dir=None) -> dict:
    """Closed loop, one caller, in-process ``SpmmRuntime.run`` on a cached pool."""
    pool = inputs.warm_pool(seed)
    argv = ["warm", "--seed", str(seed), "--seconds", str(seconds)]
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    with Child(argv, work, "warm") as child:
        out = child.result()
    failed = int(out["numeric_mismatches"])
    calls = len(out["latencies_s"])
    for j, counts in out["digests"].items():
        r = pool[int(j)]
        want = oracle.digest(r.spec, r.k, r.seed)
        failed += sum(n for d, n in counts.items() if d != want)
    modeled = {(pool[int(j)].spec, pool[int(j)].k): t
               for j, t in out["modeled_time_s"].items()}
    # One round is one pass over the shuffled pool; each timing is the
    # median over rounds, so a short stall on the host moves one round.
    n = len(pool)
    rounds = [[s * 1e3 for s in out["latencies_s"][i:i + n]]
              for i in range(0, calls - n + 1, n)]
    branches = {}
    for j, alg in out["algorithms"].items():
        branches[(pool[int(j)].spec, pool[int(j)].k)] = alg
    return {
        "attempted": calls,
        "failed": failed,
        "requests": calls,
        "metrics": {
            "setup_s": statistics.median(out["setup_s"]),
            "throughput_rps": statistics.median(n * 1e3 / sum(r) for r in rounds),
            "latency_p50_ms": statistics.median(pct(r, 50) for r in rounds),
            "latency_p90_ms": statistics.median(pct(r, 90) for r in rounds),
            "peak_rss_mb": out["peak_rss_mb"],
            "modeled_speedup_geomean": modeled_speedup_geomean(oracle, modeled),
        },
        "census": census(oracle, pool, branches, {
            "all_timed_calls_cache_hits": out["all_cache_hits"],
            "timed_calls": calls,
        }),
        "trace_snaps": [layers.load(trace_dir)] if trace_dir else [],
    }


# --------------------------------------------------------- service_open
def _wait_health(sock, child, timeout_s=60.0) -> None:
    import loadgen

    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if child.proc.poll() is not None:
            raise BenchError(f"server exited on startup: {child.tail()}")
        try:
            reply = loadgen.call(sock, "health")
            if reply and reply.get("status") == 200:
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise BenchError("server never answered health")


def _server(work, name, sock, state, store, trace_dir=None):
    argv = ["serve", "--socket", sock, "--state-dir", state,
            "--store-dir", store, "--workers", str(checkout.nproc())]
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    t0 = time.perf_counter()
    child = Child(argv, work, name)
    try:
        _wait_health(sock, child)
    except BaseException:
        child.close()
        raise
    return child, time.perf_counter() - t0


def _drain(sock, child) -> dict:
    import loadgen

    loadgen.call(sock, "drain")
    return child.result(60.0)


def _tenant_evictions(sock) -> dict:
    """Per-tenant plan-cache evictions so far, from the stats reply.

    When tracing, a stats request also makes the server write its span
    totals.
    """
    import loadgen

    reply = loadgen.call(sock, "stats") or {}
    tenants = (reply.get("result") or {}).get("cache", {}).get("tenants", {})
    return {t: s["evictions"] for t, s in tenants.items()}


def _check_replies(oracle, results):
    """(failed, replayed, modeled, branches) over loadgen results.

    Marks each result ``ok``; a failed one gets an infinite latency.
    """
    failed = replayed = 0
    modeled, branches = {}, {}
    for res in results:
        req, reply = res["request"], res["reply"]
        body = (reply or {}).get("result") or {}
        res["ok"] = not oracle.is_failure(
            req.spec, req.k, req.seed, (reply or {}).get("status"),
            body.get("digest"), int(body.get("rung", 0)))
        if not res["ok"]:
            failed += 1
            print(f"failed: {req.spec} k={req.k} seed={req.seed}: "
                  f"{json.dumps(reply)[:300]}", file=sys.stderr)
            res["latency_s"] = math.inf
            continue
        replayed += bool(body.get("replayed"))
        modeled[(req.spec, req.k)] = body["time_s"]
        branches[(req.spec, req.k)] = BRANCH.get(body["variant"], body["variant"])
    return failed, replayed, modeled, branches


def service_open(seed, seconds, work, oracle, trace_dir=None) -> dict:
    """Open-loop Poisson traffic from two tenants against a live ``serve``,
    then a closed-loop probe of its capacity."""
    import loadgen

    sock = os.path.join(work, "svc.sock")
    state = os.path.join(work, "state")
    store = os.path.join(work, "store")
    n_conns = max(1, min(checkout.nproc(), len(inputs.TENANTS)))
    probe_s = seconds * PROBE_SHARE

    def warm_up(restarted):
        """Round by round, so the warm-up never trips backpressure."""
        replies = []
        for reqs in inputs.service_warmup(seed, restarted):
            replies += loadgen.run_open_loop(
                sock, [inputs.Event(0.0, "warmup", reqs)], n_conns=n_conns,
                grace_s=CHILD_TIMEOUT_S)[0]
        return replies

    # Lifetime 1: a fresh server plans and spills the hot pool, then drains.
    child, _ = _server(work, "serve0", sock, state, store)
    with child:
        warm = warm_up(False)
        _drain(sock, child)
    # Identical restarts on that state: recovery, pre-attach, worker spawn.
    setups = []
    for i in range(1, SERVICE_RESTARTS + 1):
        last = i == SERVICE_RESTARTS
        child, setup = _server(work, f"serve{i}", sock, state, store,
                               trace_dir if last else None)
        setups.append(setup)
        if not last:
            with child:
                _drain(sock, child)
    events = inputs.service_schedule(seed, seconds)
    with child:
        # Warm the fresh workers' conversions, untimed, then measure.
        warm += warm_up(True)
        before = _tenant_evictions(sock)
        base = layers.load(trace_dir) if trace_dir else None
        results, lags = loadgen.run_open_loop(
            sock, events, n_conns=n_conns, grace_s=CHILD_TIMEOUT_S / 2)
        after = _tenant_evictions(sock)
        # Per-layer figures cover the open loop only, not the probe.
        snaps = [layers.since(layers.load(trace_dir), base)] if trace_dir else []
        probe = loadgen.run_closed_loop(
            sock, inputs.service_probe(seed), depth=inputs.PROBE_DEPTH,
            n_conns=n_conns, seconds=probe_s, grace_s=CHILD_TIMEOUT_S / 4)
        out = _drain(sock, child)

    w_failed = _check_replies(oracle, warm)[0]
    p_failed = _check_replies(oracle, probe)[0]
    failed, replayed, modeled, branches = _check_replies(oracle, results)
    lat_ms = [r["latency_s"] * 1e3 for r in results]
    # completed probe requests per second, up to the last one in time
    done = sorted(r["done_s"] for r in probe if r["ok"] and r["done_s"] <= probe_s)
    if not done:
        raise BenchError("no capacity-probe request completed in time")
    evictions = {t: n - before.get(t, 0) for t, n in sorted(after.items())}
    kinds = {}
    for ev in events:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + len(ev.requests)
    n = len(results)
    reqs = [r["request"] for r in results]
    completed = n - failed
    return {
        "attempted": n + len(warm) + len(probe),
        "failed": failed + w_failed + p_failed,
        "requests": n,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_rps": len(done) / done[-1],
            "latency_p50_ms": pct(lat_ms, 50),
            "latency_p90_ms": pct(lat_ms, 90),
            "peak_rss_mb": out["peak_rss_mb"],
            "modeled_speedup_geomean": modeled_speedup_geomean(oracle, modeled),
        },
        "census": census(oracle, reqs, branches, {
            "offered_requests": n,
            "offered_rps": n / seconds,
            "share_burst": kinds.get("burst", 0) / n,
            "share_resubmit": kinds.get("resubmit", 0) / n,
            "share_new_matrix": kinds.get("new", 0) / n,
            "share_hot_single": kinds.get("single", 0) / n,
            "replayed_replies": replayed,
            "tenant_cache_entries": inputs.TENANT_CACHE_ENTRIES,
            "tenant_evictions": evictions,
            "probe_depth": inputs.PROBE_DEPTH,
            "probe_requests": len(probe),
            "server_completed": out["summary"]["completed"],
        }),
        "trace_snaps": snaps,
        "service": {
            "lag_p90_ms": pct([s * 1e3 for s in lags], 90),
            "replay_ratio": replayed / max(1, completed),
            "batch_tenant_evictions": evictions.get(inputs.TENANTS[1][0], 0),
        },
    }


WORKLOADS = {
    "warm_rerun": warm_rerun,
    "service_open": service_open,
}

#: coverage guard: layers whose wrappers must fire on the owning workload
OWNED = {
    "warm_rerun": ("kernels.compute", "kernels.prepare", "kernels.accounting",
                   "gpu.timing", "runtime.record", "runtime.cache"),
    # the never-seen matrices plan, convert, spill and publish
    "service_open": ("service.state", "service.admission", "service.coalesce",
                     "runtime.journal", "store.registry", "runtime.planner",
                     "formats.convert", "engine.convert", "store.persist"),
}


# ------------------------------------------------------------- reporting
def census(oracle, reqs, branches, extra) -> dict:
    """What the run exercised: families, nnz, k mix, planner branches."""
    split = {}
    for branch in branches.values():
        split[branch] = split.get(branch, 0) + 1
    sizes = [oracle.matrix(s).nnz for s in sorted({r.spec for r in reqs})]
    return {
        "families": sorted({r.family for r in reqs}),
        "k_mix": {str(k): sum(r.k == k for r in reqs) for k in inputs.K_MIX},
        "nnz_range": [min(sizes), max(sizes)],
        "planner_branches": split,
        **extra,
    }


def guard(workload: str, layer_metrics: dict, merged: dict, res: dict) -> list:
    """Owned layers whose wrappers never fired (empty = coverage holds)."""
    problems = [f"{layer}.calls == 0" for layer in OWNED[workload]
                if layer_metrics[f"{layer}.calls"][0] <= 0]
    counts = merged["counts"]
    if workload == "warm_rerun" and layer_metrics["runtime.cache.hit_ratio"][0] != 1.0:
        problems.append("runtime.cache.hit_ratio != 1.0")
    if workload == "service_open":
        if not merged["roundtrip_s"]:
            problems.append("no supervisor round trip was matched")
        if counts.get("service.coalesce.fused_windows", 0) < 1:
            problems.append("no fused coalescing window")
        if res["service"]["replay_ratio"] <= 0:
            problems.append("no journal replay")
        if res["service"]["batch_tenant_evictions"] <= 0:
            problems.append("the batch tenant evicted nothing")
    return problems


def traced(workload, seed, seconds, work, oracle, base) -> tuple[dict, dict]:
    """The traced pass: per-layer metrics plus tracing overhead."""
    tdir = os.path.abspath(os.path.join(work, "spans"))
    os.makedirs(tdir)
    res = WORKLOADS[workload](seed, seconds, work, oracle, trace_dir=tdir)
    merged = layers.merge(res["trace_snaps"])
    per = layers.per_layer_metrics(merged, res["requests"])
    svc = res.get("service", {"lag_p90_ms": 0.0, "replay_ratio": 0.0})
    per["service.server.replay_ratio"] = (svc["replay_ratio"], "ratio")
    per["loadgen.lag_p90_ms"] = (svc["lag_p90_ms"], "ms")
    b, t = base["metrics"], res["metrics"]
    per["tracing.overhead.throughput_rps_pct"] = (
        (b["throughput_rps"] - t["throughput_rps"]) / b["throughput_rps"] * 100, "%")
    for name in ("latency_p50_ms", "latency_p90_ms"):
        per[f"tracing.overhead.{name}_pct"] = ((t[name] - b[name]) / b[name] * 100, "%")
    problems = guard(workload, per, merged, res)
    if problems:
        raise BenchError("coverage guard: " + "; ".join(problems))
    return res, per


UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB",
         "modeled_speedup_geomean": "x"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        checkout.use_src()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(checkout.ROOT)
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    os.environ["TMPDIR"] = os.path.abspath(work)
    try:
        oracle = Oracle()
        plain = os.path.join(work, "plain")
        os.makedirs(plain)
        base = WORKLOADS[args.workload](args.seed, args.seconds, plain, oracle)
        attempted, failed = base["attempted"], base["failed"]
        if args.trace:
            res, per = traced(args.workload, args.seed, args.seconds,
                              os.path.join(work, "traced"), oracle, base)
            attempted += res["attempted"]
            failed += res["failed"]
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per.items())}
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in base["metrics"].items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(f"seed: {args.seed}  workload: {args.workload}  trace: {args.trace}")
    print("census: " + json.dumps(base["census"], sort_keys=True))
    print(f"failed_fraction: {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
