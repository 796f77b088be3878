"""The program side of each workload, run as its own process by ``run.py``.

Each subcommand drives the system through a public entry point and prints
one JSON line of raw observations on stdout; ``run.py`` checks them and
turns them into metrics.  ``--trace-dir`` installs the per-layer span
wrappers (:mod:`layers`) first and writes span totals there; without it
no wrapper is installed.

* ``warm``  — in-process ``SpmmRuntime.run`` reruns over a cached pool;
* ``serve`` — hosts ``SpmmService(ServiceConfig(...))``, the object
  ``python -m repro serve`` builds, until drained.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time

import checkout
import inputs

#: warm_rerun repeats its cold first pass this many times (fresh runtime
#: and fresh matrix objects each time) and reports the median
WARM_SETUP_REPS = 5
GPU = "gv100"


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus its largest reaped child if asked."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if children:
        mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mb


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def _tracing(trace_dir):
    if trace_dir is None:
        return None
    import layers

    layers.install(trace_dir)
    return layers.RECORDER


def output_matches_scipy(matrix, dense, out) -> bool:
    """Independent check: scipy ``A @ B`` within a float32 tolerance."""
    import numpy as np
    import scipy.sparse as sp

    rows, cols, vals = matrix.to_coo_arrays()
    a = sp.csr_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)),
                      shape=matrix.shape)
    ref = a @ np.asarray(dense, dtype=np.float64)
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return out.shape == ref.shape and bool(
        np.allclose(out, ref, rtol=1e-5, atol=1e-5 * scale)
    )


# ------------------------------------------------------------------ warm
def cmd_warm(args) -> None:
    recorder = _tracing(args.trace_dir)
    from repro.gpu import get_config
    from repro.matrices import from_spec
    from repro.runtime import SpmmRequest, SpmmRuntime

    pool = inputs.warm_pool(args.seed)
    config = get_config(GPU)

    def build():
        matrices = {}
        for r in pool:
            if r.spec not in matrices:
                matrices[r.spec] = from_spec(r.spec)
        return [SpmmRequest(matrices[r.spec], k=r.k, seed=r.seed) for r in pool]

    setup_s = []
    for _ in range(WARM_SETUP_REPS):
        requests = build()
        runtime = SpmmRuntime(config)
        t0 = time.perf_counter()
        for request in requests:
            runtime.run(request)
        setup_s.append(time.perf_counter() - t0)
    if recorder is not None:
        recorder.reset()

    order = list(range(len(requests)))
    random.Random(f"order:{args.seed}").shuffle(order)
    latencies, digests = [], {}
    algorithms, modeled = {}, {}
    all_hits, numeric_bad = True, 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        j = order[i % len(order)]
        i += 1
        request = requests[j]
        t0 = time.perf_counter()
        outcome = runtime.run(request)
        digest = outcome.record.digest()
        latencies.append(time.perf_counter() - t0)
        all_hits = all_hits and outcome.cache_hit
        seen = digests.setdefault(j, {})
        seen[digest] = seen.get(digest, 0) + 1
        if j not in algorithms:
            algorithms[j] = outcome.plan.algorithm
            modeled[j] = outcome.record.time_s
            if not output_matches_scipy(request.matrix, request.resolve_dense(),
                                        outcome.run.result.output):
                numeric_bad += 1
    if recorder is not None:
        recorder.flush()
    emit({
        "setup_s": setup_s,
        "latencies_s": latencies,
        "digests": digests,
        "algorithms": algorithms,
        "modeled_time_s": modeled,
        "all_cache_hits": all_hits,
        "numeric_mismatches": numeric_bad,
        "peak_rss_mb": peak_rss_mb(),
    })


# ----------------------------------------------------------------- serve
#: The service workload's coalescing window is wider than the 5 ms
#: default: the dispatcher moves one queued request into a window per
#: supervisor tick (up to 20 ms), so a 3-4 request burst only fuses if the
#: first member waits that long.
COALESCE_WINDOW_MS = 60.0


def cmd_serve(args) -> None:
    recorder = _tracing(args.trace_dir)
    from repro.service import ServiceConfig, SpmmService

    if recorder is not None:
        # Recovery and pre-attach belong to set-up: drop their spans.
        # A stats request writes the span totals, so the benchmark can
        # subtract the warm-up that precedes its timed phase.
        preattach, stats = SpmmService._preattach, SpmmService._op_stats

        def _preattach_then_reset(self):
            preattach(self)
            recorder.reset()

        def _flush_then_stats(self):
            recorder.flush()
            return stats(self)

        SpmmService._preattach = _preattach_then_reset
        SpmmService._op_stats = _flush_then_stats
    service = SpmmService(ServiceConfig(
        socket_path=args.socket,
        state_dir=args.state_dir,
        store_dir=args.store_dir,
        workers=args.workers,
        tenant_cache_entries=inputs.TENANT_CACHE_ENTRIES,
        coalesce_window_ms=COALESCE_WINDOW_MS,
    ))
    summary = service.run()
    if recorder is not None:
        recorder.flush()
    emit({"summary": summary, "peak_rss_mb": peak_rss_mb(children=True)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("warm")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-dir")
    p.set_defaults(func=cmd_warm)
    p = sub.add_parser("serve")
    p.add_argument("--socket", required=True)
    p.add_argument("--state-dir", required=True)
    p.add_argument("--store-dir", required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--trace-dir")
    p.set_defaults(func=cmd_serve)
    args = parser.parse_args()
    checkout.use_src()
    args.func(args)


if __name__ == "__main__":
    main()
