"""Command-line interface: profile, footprint, and simulate sparse matrices.

Usage (``python -m repro <command> ...``):

``profile``
    Print sparsity statistics, the SSF, and the algorithm the paper's
    heuristic would choose for a Matrix Market file or a synthetic matrix.
``footprint``
    Compare every format's modelled DRAM footprint for one matrix.
``simulate``
    Run all SpMM algorithm variants on the simulated GPU and print the
    Fig. 16-style speedup row.
``run``
    Plan + execute through the runtime (plan cache, run records); with
    ``--trace`` the run is traced and exported (``--trace-format``
    jsonl/tree/chrome — see ``docs/OBSERVABILITY.md``).
``report``
    Render a saved RunRecord JSON file (single record or a ``--record-out``
    bundle) as a human-readable report.
``bench``
    Run the regression-tracked benchmark suite, write a schema-versioned
    ``BENCH_<date>.json``, and optionally ``--check`` against a committed
    baseline (see ``docs/PERFORMANCE.md``).
``engine``
    Report the near-memory engine's Section 5.3 numbers for a GPU preset.
``faults``
    Run a seeded fault-injection campaign and print the resilience report.

Matrices come either from ``--mtx <file>`` or from a generator spec
``--generate family:n_rows:n_cols:density[:seed]``, e.g.
``--generate block_diagonal:2048:2048:0.02:7``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, gpu, kernels, matrices, telemetry
from .errors import ReproError
from .formats import to_format
from .util import atomic_write, human_bytes


def _load_matrix(args):
    if args.mtx and args.generate:
        raise ReproError("pass either --mtx or --generate, not both")
    if args.mtx:
        return matrices.from_spec(args.mtx, is_file=True)
    if args.generate:
        return matrices.from_spec(args.generate, is_file=False)
    raise ReproError("a matrix is required: --mtx <file> or --generate <spec>")


def _atomic_write(path: str, payload: str, *, force: bool) -> None:
    """Write ``payload`` to ``path`` with :func:`~repro.util.atomic_write`.

    Refuses to clobber an existing file unless ``force``; a crash mid-write
    can never leave a truncated file at ``path``.
    """
    import os

    if os.path.exists(path) and not force:
        raise ReproError(f"{path} exists; pass --force to overwrite")
    atomic_write(path, payload)


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mtx", help="Matrix Market file to read")
    p.add_argument(
        "--generate",
        help="synthetic spec family:n_rows:n_cols:density[:seed]",
    )
    p.add_argument(
        "--tile-width", type=int, default=64, help="vertical strip width"
    )


def cmd_profile(args) -> int:
    m = _load_matrix(args)
    stats = matrices.matrix_stats(m, tile_width=args.tile_width)
    s = analysis.ssf(m, tile_width=args.tile_width)
    h = analysis.normalized_entropy(m, tile_width=args.tile_width)
    print(f"shape:                 {m.n_rows} x {m.n_cols}")
    print(f"nnz:                   {m.nnz} (density {m.density:.3g})")
    print(f"non-empty rows:        {stats.n_nonzero_rows} "
          f"({stats.n_nonzero_rows / max(m.n_rows, 1):.1%})")
    print(f"non-empty cols:        {stats.n_nonzero_cols}")
    print(f"mean nnz/nonzero row:  {stats.mean_nnz_per_nonzero_row:.2f}")
    print(f"mean nnz rows/strip:   {stats.mean_nonzero_rows_per_strip:.1f}")
    print(f"row nnz CV:            {stats.row_nnz_cv:.2f}")
    print(f"col nnz CV:            {stats.col_nnz_cv:.2f}")
    print(f"H_norm (Eq. 1):        {h:.4f}")
    print(f"SSF (Eq. 2):           {s:.6g}")
    choice = (
        "B-stationary (online tiled DCSR)"
        if s > args.ssf_threshold
        else "C-stationary (untiled CSR/DCSR)"
    )
    print(f"heuristic choice:      {choice} "
          f"(threshold {args.ssf_threshold:g})")
    return 0


def cmd_footprint(args) -> int:
    m = _load_matrix(args)
    print(f"{'format':>12} {'metadata':>12} {'values':>12} {'total':>12} "
          f"{'vs CSR':>7}")
    csr_total = to_format(m, "csr").footprint_bytes()
    for fmt in ("coo", "csr", "csc", "dcsr", "dcsc", "ell", "tiled_csr", "tiled_dcsr"):
        c = to_format(m, fmt)
        print(f"{fmt:>12} {human_bytes(c.metadata_bytes()):>12} "
              f"{human_bytes(c.value_bytes()):>12} "
              f"{human_bytes(c.footprint_bytes()):>12} "
              f"{c.footprint_bytes() / max(csr_total, 1):6.2f}x")
    return 0


def cmd_simulate(args) -> int:
    from .runtime import SpmmRequest, SpmmRuntime

    m = _load_matrix(args)
    config = gpu.get_config(args.gpu)
    k = args.k if args.k else min(m.n_cols, 2048)
    runtime = SpmmRuntime(config, ssf_threshold=args.ssf_threshold)
    request = SpmmRequest(
        m, k=k, seed=args.seed, tile_width=args.tile_width
    )
    variants = runtime.run_all_variants(request)
    outcome = runtime.run(request)
    hybrid = outcome.execution.run
    b = request.resolve_dense()
    if args.json:
        # stdout carries exactly one JSON document; every diagnostic —
        # including the verification verdict — goes to stderr.
        print(outcome.record.to_json())
        if not kernels.verify_against_reference(hybrid, m, b):
            print("ERROR: numeric verification failed", file=sys.stderr)
            return 1
        print("numeric output verified against scipy.", file=sys.stderr)
        return 0
    base = variants["baseline_csr"].time_s
    print(f"simulated GPU: {config.name}; K = {k}; "
          f"SSF = {analysis.ssf(m):.4g}")
    print(f"{'variant':>22} {'time us':>10} {'speedup':>8} "
          f"{'DRAM MB':>8} {'mem-bound':>9}")
    for name, run in variants.items():
        t = run.timing
        print(f"{name:>22} {run.time_s * 1e6:10.1f} "
              f"{base / run.time_s:8.2f} "
              f"{run.result.traffic.total_bytes / 1e6:8.2f} "
              f"{str(t.memory_bound):>9}")
    print(f"\nhybrid choice: {hybrid.name} "
          f"({base / hybrid.time_s:.2f}x over baseline)")
    if not kernels.verify_against_reference(hybrid, m, b):
        print("ERROR: numeric verification failed", file=sys.stderr)
        return 1
    print("numeric output verified against scipy.")
    return 0


def _print_run(args, index, record, plan, cache_hit) -> None:
    """Report one ``repro run`` execution: plan, cache status, digest."""
    if args.json:
        print(record.to_json())
        return
    prov = plan.provenance
    cache = "hit" if cache_hit else "miss"
    print(f"run {index}: variant={record.variant} "
          f"algorithm={plan.algorithm} "
          f"time={record.time_s * 1e6:.1f}us "
          f"ssf={prov['ssf']:.4g} cache={cache} "
          f"digest={record.digest()[:16]}")


def _parse_batch_file(path: str) -> list:
    """Read a batch file into labeled matrices, blaming the exact bad line.

    Returns ``[(label, matrix), ...]``; an unreadable or invalid entry
    raises :class:`~repro.errors.ConfigError` naming the file and line
    number so the CLI exits with a clean message, never a traceback.
    """
    from .errors import ConfigError

    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ReproError(f"cannot read batch file: {exc}") from None
    specs = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not specs:
        raise ReproError(f"batch file {path} lists no matrices")
    out = []
    for lineno, spec in specs:
        try:
            out.append((spec, matrices.from_spec(spec)))
        except ReproError as exc:
            raise ConfigError(
                f"batch file {path} line {lineno}: {exc}"
            ) from None
    return out


def _resolve_journal(args):
    """Validate the journal flags; returns ``(journal_path, resume)``."""
    import os

    from .errors import ConfigError

    if args.journal and args.resume:
        raise ConfigError("pass either --journal or --resume, not both")
    if args.resume:
        if not os.path.exists(args.resume):
            raise ConfigError(f"--resume journal not found: {args.resume}")
        return args.resume, True
    if args.journal:
        if os.path.exists(args.journal):
            if not args.force:
                raise ReproError(
                    f"{args.journal} exists; pass --force to restart it "
                    f"or --resume to continue it"
                )
            os.unlink(args.journal)
        return args.journal, False
    return None, False


def _print_batch_summary(args, results) -> None:
    """Report quarantined items plus supervision/journal totals.

    Failures and (in ``--json`` mode) the machine-readable summary go to
    stderr so stdout stays a pure stream of RunRecord documents.
    """
    import json as _json

    for failed in results.failures:
        print(
            f"failed item {failed.index}: {failed.error_type}: "
            f"{failed.message} (attempts: {failed.attempts})",
            file=sys.stderr,
        )
    summary = results.summary()
    if args.json:
        print(_json.dumps(summary, sort_keys=True, default=float),
              file=sys.stderr)
        return
    sup = summary["supervision"]
    print(f"batch: {summary['completed']}/{summary['n_items']} completed, "
          f"{summary['replayed']} replayed, "
          f"{len(results.failures)} failed, "
          f"{sup.get('retries', 0)} retries, "
          f"{sup.get('worker_crashes', 0)} worker crashes")
    journal = summary["journal"]
    if journal is not None:
        print(f"journal: {journal['trusted_entries']} trusted entries, "
              f"{journal.get('appended', 0)} appended, "
              f"{len(journal['anomalies'])} anomalies "
              f"({journal['path']})")
        durability = journal.get("durability")
        if durability and durability.get("degraded"):
            print(f"journal: DEGRADED (non-durable) — "
                  f"{durability['lost']} appends lost "
                  f"({durability.get('reason')}); a resume will re-execute "
                  f"them",
                  file=sys.stderr)


def cmd_run(args) -> int:
    """Planner/executor front door: plan, cache, execute, record, trace."""
    from .errors import ConfigError
    from .runtime import SpmmRequest, SpmmRuntime

    config = gpu.get_config(args.gpu)
    tracer = None
    if args.trace:
        from .telemetry import Tracer

        tracer = Tracer()
    cache = None
    if args.store_dir:
        from .runtime import PlanCache
        from .store import PersistentFormatStore

        cache = PlanCache(persist=PersistentFormatStore(args.store_dir))
    runtime = SpmmRuntime(
        config, ssf_threshold=args.ssf_threshold, tracer=tracer, cache=cache,
    )
    if args.repeat < 1:
        raise ReproError("--repeat must be at least 1")
    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if not args.batch:
        for flag, value in (
            ("--journal", args.journal),
            ("--resume", args.resume),
            ("--fail-fast", args.fail_fast),
            ("--request-timeout", args.request_timeout),
            ("--start-method", args.start_method),
        ):
            if value:
                raise ConfigError(f"{flag} requires --batch")

    matrices_in = (
        _parse_batch_file(args.batch)
        if args.batch
        else [(args.mtx or args.generate, _load_matrix(args))]
    )
    labeled_requests = []
    for label, m in matrices_in:
        k = args.k if args.k else min(m.n_cols, 2048)
        labeled_requests.append(
            (label, SpmmRequest(m, k=k, seed=args.seed,
                                tile_width=args.tile_width))
        )

    records: list = []
    exit_code = 0
    if args.batch:
        from .runtime import ParallelExecutor
        from .runtime.supervisor import SupervisionPolicy

        journal_path, resume = _resolve_journal(args)
        policy = SupervisionPolicy(
            request_timeout_s=args.request_timeout,
            max_retries=args.max_retries,
            fail_fast=args.fail_fast,
            start_method=args.start_method,
        )
        executor = ParallelExecutor(runtime, workers=args.workers)
        batch = [
            request
            for _, request in labeled_requests
            for _ in range(args.repeat)
        ]
        results = executor.run_batch(
            batch, policy=policy, journal=journal_path, resume=resume,
            coalesce=args.coalesce and args.workers > 1,
            coalesce_max_k=args.coalesce_max_k,
        )
        index = 0
        for label, _ in labeled_requests:
            if not args.json and len(labeled_requests) > 1:
                print(f"# {label}")
            for _ in range(args.repeat):
                res = results[index]
                index += 1
                if res is None:  # quarantined; detailed on stderr below
                    continue
                records.append(res.record)
                _print_run(args, index, res.record, res.plan, res.cache_hit)
        _print_batch_summary(args, results)
        if results.failures:
            exit_code = 1
    else:
        index = 0
        for label, request in labeled_requests:
            for _ in range(args.repeat):
                index += 1
                outcome = runtime.run(request)
                records.append(outcome.record)
                _print_run(
                    args, index, outcome.record, outcome.plan,
                    outcome.cache_hit,
                )

    if args.record_out:
        import json as _json

        payload = "[\n" + ",\n".join(r.to_json() for r in records) + "\n]\n"
        _json.loads(payload)  # sanity: the bundle must itself be valid JSON
        _atomic_write(args.record_out, payload, force=args.force)
    if args.trace:
        from .telemetry import trace_payload

        _atomic_write(
            args.trace, trace_payload(tracer, args.trace_format),
            force=args.force,
        )
        print(
            f"trace ({args.trace_format}): {len(list(tracer.iter_spans()))} "
            f"spans -> {args.trace}",
            file=sys.stderr if args.json else sys.stdout,
        )
    if not args.json:
        stats = runtime.cache.stats
        print(f"plan cache: {stats['entries']} entries, "
              f"{stats['hits']} hits, {stats['misses']} misses")
    return exit_code


def cmd_serve(args) -> int:
    """Run the resident SpMM service until drained (see docs/SERVICE.md)."""
    from .runtime.supervisor import SupervisionPolicy
    from .service import AdmissionConfig, ServiceConfig, SpmmService

    config = ServiceConfig(
        socket_path=args.socket,
        state_dir=args.state_dir,
        workers=args.workers,
        gpu=args.gpu,
        ssf_threshold=args.ssf_threshold,
        admission=AdmissionConfig(
            max_pending=args.max_pending,
            target_wait_s=args.target_wait,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        ),
        policy=SupervisionPolicy(
            request_timeout_s=args.request_timeout,
            max_retries=args.max_retries,
            start_method=args.start_method,
        ),
        cache_entries=args.cache_entries,
        tenant_cache_entries=args.tenant_cache_entries,
        store_dir=args.store_dir,
        coalesce=args.coalesce,
        coalesce_max_k=args.coalesce_max_k,
    )
    service = SpmmService(config)
    print(f"serving on {args.socket} "
          f"(state: {args.state_dir}, workers: {args.workers}, "
          f"gpu: {args.gpu})", flush=True)
    summary = service.run()
    print(f"drained: {summary['completed']} completed, "
          f"{summary['failed']} failed, {summary['shed']} shed, "
          f"{summary['recovered']} recovered")
    if summary["dispatch_error"]:
        print(f"error: dispatcher died: {summary['dispatch_error']}",
              file=sys.stderr)
        return 1
    return 0


def _report_one(record, index: int, total: int) -> None:
    """Print one RunRecord as a human-readable stanza."""
    header = f"record {index}/{total}" if total > 1 else "record"
    t = record.traffic
    s = record.stall
    print(f"{header}: {record.variant} ({record.algorithm})")
    print(f"  plan:      {record.plan['algorithm']} "
          f"a_format={record.plan['a_format']} "
          f"stationarity={record.plan['stationarity']} "
          f"gpu={record.plan['gpu']}")
    prov = record.plan.get("provenance", {})
    if "ssf" in prov:
        print(f"  ssf:       {prov['ssf']:.6g} "
              f"(threshold {prov['ssf_threshold']:g})")
    print(f"  time:      {record.time_s * 1e6:.1f} us "
          f"(mem {record.timing.t_mem_s * 1e6:.1f}, "
          f"sm {record.timing.t_sm_s * 1e6:.1f}, "
          f"other {record.timing.t_other_s * 1e6:.1f})")
    print(f"  stall:     memory {s.memory:.1%}, sm {s.sm:.1%}, "
          f"other {s.other:.1%}")
    print(f"  traffic:   A {human_bytes(t.a_bytes)}, B {human_bytes(t.b_bytes)}, "
          f"C {human_bytes(t.c_bytes)}, atomics {human_bytes(t.atomic_bytes)} "
          f"(total {human_bytes(t.total_bytes)})")
    print(f"  flops:     {record.flops:.4g}")
    if record.degraded or record.reason:
        print(f"  ladder:    degraded={record.degraded} "
              f"reason={record.reason!r}")
        for rung, cost in sorted(record.ladder_costs_s.items()):
            print(f"             {rung}: {cost * 1e6:.1f} us")
    summary = record.extras.get("trace_summary")
    if summary:
        print(f"  trace:     {summary['n_spans']} spans under "
              f"{summary['root']!r}, {summary['duration_s'] * 1e6:.1f} us")
        for name, agg in summary["by_name"].items():
            print(f"             {name:<28s} x{agg['count']:<3d} "
                  f"{agg['total_s'] * 1e6:10.1f} us")
    print(f"  digest:    {record.digest()}")


def cmd_report(args) -> int:
    """Render saved RunRecord JSON (one record or a bundle) for humans."""
    import json

    from .runtime import RunRecord

    try:
        with open(args.record) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ReproError(f"record file not found: {args.record}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.record} is not valid JSON: {exc}") from None
    docs = data if isinstance(data, list) else [data]
    if not docs:
        raise ReproError(f"{args.record} contains no records")
    try:
        records = [RunRecord.from_dict(d) for d in docs]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"{args.record} is not a RunRecord document: {exc}"
        ) from None
    for i, record in enumerate(records, start=1):
        if i > 1:
            print()
        _report_one(record, i, len(records))
    return 0


def cmd_bench(args) -> int:
    """Benchmark suite with memory: run, write JSON, compare to baseline."""
    import json
    import os
    from datetime import date

    from . import bench

    if args.list:
        for name in bench.BENCHMARKS:
            print(name)
        return 0
    payload = bench.run_benchmarks(quick=args.quick, include=args.only or None)
    print(bench.format_table(payload))
    out = args.out or f"BENCH_{date.today().isoformat()}.json"
    _atomic_write(out, bench.payload_json(payload), force=args.force)
    print(f"\nwrote {out} (schema v{payload['schema_version']}, "
          f"{'quick' if payload['quick'] else 'full'} mode)")

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(bench.DEFAULT_BASELINE):
        baseline_path = bench.DEFAULT_BASELINE
    if baseline_path is None:
        if args.check:
            raise ReproError(
                "--check requires a baseline (pass --baseline or commit "
                f"{bench.DEFAULT_BASELINE})"
            )
        return 0
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        raise ReproError(
            f"baseline file not found: {baseline_path}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"{baseline_path} is not valid JSON: {exc}"
        ) from None
    lines, regressed = bench.compare_payloads(
        payload, baseline, threshold=args.threshold
    )
    print(f"\nbaseline: {baseline_path} "
          f"(threshold {args.threshold:.0%})")
    for line in lines:
        print(line)
    if regressed:
        print(f"\n{len(regressed)} regression(s): {', '.join(regressed)}",
              file=sys.stderr)
        return 1 if args.check else 0
    print("\nno regressions")
    return 0


def cmd_engine(args) -> int:
    from .engine import pipeline_report, size_prefetch_buffer
    from .hw import chip_overhead, engine_area, engine_power

    config = gpu.get_config(args.gpu)
    rep = pipeline_report(config)
    spec = size_prefetch_buffer(config)
    area = engine_area()
    chip = chip_overhead(config)
    power = engine_power(config)
    print(f"GPU: {config.name} ({config.mem_channels} channels x "
          f"{config.channel_bandwidth_gbps} GB/s)")
    print(f"pipeline: {rep.n_stages} stages, cycle {rep.cycle_time_ns} ns; "
          f"budgets {rep.fp32_budget_ns:.3f}/{rep.fp64_budget_ns:.3f} ns "
          f"(fp32 ok: {rep.meets_fp32}, fp64 ok: {rep.meets_fp64})")
    print(f"prefetch buffer: {spec.bytes_per_column} B/col, "
          f"{human_bytes(spec.total_bytes)} total")
    print(f"area: {area.total_mm2:.3f} mm^2/unit; {chip.n_engines} units = "
          f"{chip.total_mm2:.2f} mm^2 ({chip.fraction:.2%} of die)")
    print(f"worst-case power: {power.total_w:.2f} W "
          f"({power.tdp_fraction:.2%} of TDP)")
    return 0


def cmd_faults(args) -> int:
    from .engine.queueing import RetryPolicy
    from .resilience import CampaignConfig, run_campaign

    m = _load_matrix(args)
    config = gpu.get_config(args.gpu)
    campaign = CampaignConfig(
        seed=args.seed,
        n_units=args.units,
        kill=args.kill,
        stuck=args.stuck,
        slow=args.slow,
        slow_factor=args.slow_factor,
        bit_flips=args.bit_flips,
        drops=args.drops,
        integrity=args.integrity,
        tile_width=args.tile_width,
        dense_cols=args.k,
        deadline_us=args.deadline_us,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_backoff_s=args.backoff_us * 1e-6,
        ),
    )
    report = run_campaign(m, config, campaign)
    print(report.to_json())
    v = report.verification
    if v["silent_wrong_result"]:
        print("error: silent wrong result — accounting broken", file=sys.stderr)
        return 1
    return 0


def cmd_collection(args) -> int:
    from .collection import collection_summary, format_report, scan_collection

    profiles, skipped = scan_collection(
        args.directory,
        pattern=args.pattern,
        min_rows=args.min_rows,
        max_rows=args.max_rows if args.max_rows > 0 else None,
        ssf_threshold=args.ssf_threshold,
    )
    print(format_report(profiles))
    for name, reason in skipped:
        print(f"skipped {name}: {reason}")
    summary = collection_summary(profiles)
    print(f"\n{summary['count']} matrices profiled; "
          f"B-stationary recommended for "
          f"{summary.get('recommend_b_stationary', 0)}")
    return 0


def cmd_figure(args) -> int:
    import json

    from . import figures

    data = figures.generate(args.id, scale=args.scale)
    print(json.dumps(data, indent=2, default=float))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near-memory SpMM transformation (SC '19) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sparsity statistics and SSF")
    _add_matrix_args(p)
    p.add_argument(
        "--ssf-threshold", type=float, default=kernels.SSF_TH_DEFAULT
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("footprint", help="per-format storage comparison")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("simulate", help="run all SpMM variants")
    _add_matrix_args(p)
    p.add_argument("--gpu", default="gv100", help="gv100 or tu116")
    p.add_argument("--k", type=int, default=0, help="dense columns (0=auto)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ssf-threshold", type=float, default=kernels.SSF_TH_DEFAULT
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the hybrid run's RunRecord as canonical JSON",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "run",
        help="plan + execute one SpMM through the runtime "
        "(plan cache, run records)",
    )
    _add_matrix_args(p)
    p.add_argument("--gpu", default="gv100", help="gv100 or tu116")
    p.add_argument("--k", type=int, default=0, help="dense columns (0=auto)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ssf-threshold", type=float, default=kernels.SSF_TH_DEFAULT
    )
    p.add_argument(
        "--repeat", type=int, default=2,
        help="times to run each matrix (repeats hit the plan cache)",
    )
    p.add_argument(
        "--batch",
        help="file listing one matrix per line (generator spec or .mtx "
        "path); runs all of them through one shared plan cache",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for batch execution (1 = in-process "
        "serial; N > 1 fans runs across N supervised worker processes "
        "with digest-identical records)",
    )
    p.add_argument(
        "--no-coalesce", dest="coalesce", action="store_false",
        help="with --batch and process workers: dispatch every item "
        "unfused instead of grouping plan-compatible same-matrix items "
        "into wide-k fused windows (docs/SERVICE.md)",
    )
    p.add_argument(
        "--coalesce-max-k", type=int, default=1024, metavar="K",
        help="size bound for one fused window: summed dense columns "
        "(default 1024)",
    )
    p.add_argument(
        "--store-dir", metavar="DIR",
        help="persistent format/plan store directory; runs warm-start "
        "from prior conversions and spill new ones for the next process "
        "(docs/STORAGE.md)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-item deadline in seconds for batch workers; a hung "
        "worker is killed and the item retried (default: no deadline)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="re-dispatches per failing batch item before it is "
        "quarantined as a FailedItem (default 2)",
    )
    p.add_argument(
        "--journal", metavar="FILE",
        help="append every completed batch item to this JSONL run "
        "journal (crash-safe checkpoint; see docs/RELIABILITY.md)",
    )
    p.add_argument(
        "--resume", metavar="FILE",
        help="resume a batch from this journal: replay digest-verified "
        "entries, execute only the remainder, keep journaling to it",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="abort the batch on the first item failure instead of "
        "retrying and quarantining",
    )
    p.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for batch workers "
        "(default: fork when available, else spawn)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print one canonical RunRecord JSON document per run",
    )
    p.add_argument(
        "--record-out", help="write all RunRecords to this JSON file"
    )
    p.add_argument(
        "--trace",
        help="trace every run and write the result to this file",
    )
    p.add_argument(
        "--trace-format",
        choices=telemetry.TRACE_FORMATS,
        default="jsonl",
        help="trace export format (default: jsonl)",
    )
    p.add_argument(
        "--force", action="store_true",
        help="overwrite existing --record-out / --trace files",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve",
        help="run the resident SpMM service on a Unix socket "
        "(admission control, multi-tenant plan cache, crash-safe "
        "journaling; see docs/SERVICE.md)",
    )
    p.add_argument("--socket", required=True, help="Unix socket path")
    p.add_argument(
        "--state-dir", required=True,
        help="durable state directory (intent log + run journal)",
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--gpu", default="gv100", help="gv100 or tu116")
    p.add_argument(
        "--ssf-threshold", type=float, default=kernels.SSF_TH_DEFAULT
    )
    p.add_argument(
        "--max-pending", type=int, default=64,
        help="ceiling on queued-but-undispatched requests",
    )
    p.add_argument(
        "--target-wait", type=float, default=2.0, metavar="S",
        help="queueing-delay budget that sizes the admission window",
    )
    p.add_argument(
        "--tenant-rate", type=float, default=50.0,
        help="per-tenant sustained admission rate (requests/second)",
    )
    p.add_argument(
        "--tenant-burst", type=int, default=16,
        help="per-tenant burst allowance (token-bucket capacity)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-request worker deadline (default: none)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="re-dispatches per failing request before quarantine",
    )
    p.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for workers",
    )
    p.add_argument(
        "--cache-entries", type=int, default=128,
        help="shared plan-cache entry budget across tenants",
    )
    p.add_argument(
        "--tenant-cache-entries", type=int, default=32,
        help="per-tenant plan-cache entry budget",
    )
    p.add_argument(
        "--store-dir", metavar="DIR",
        help="persistent format/plan store; a restart against the same "
        "directory warm-starts planning and pre-attaches hot operands "
        "before the socket opens (docs/STORAGE.md)",
    )
    p.add_argument(
        "--no-coalesce", dest="coalesce", action="store_false",
        help="dispatch every request unfused instead of coalescing "
        "same-matrix rung-0 requests that queue while every worker is "
        "busy into wide-k fused windows (docs/SERVICE.md)",
    )
    p.add_argument(
        "--coalesce-max-k", type=int, default=1024, metavar="K",
        help="size bound for one fused window: summed dense columns "
        "(default 1024)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "report",
        help="render a saved RunRecord JSON file (single record or a "
        "--record-out bundle) as a human-readable report",
    )
    p.add_argument("record", help="RunRecord JSON file to render")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="run the regression-tracked benchmark suite and compare "
        "against a committed baseline",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="small inputs for CI smoke runs (recorded in the payload)",
    )
    p.add_argument(
        "--only", action="append", metavar="GLOB",
        help="run only benchmarks matching this glob, e.g. 'kernels.*' "
        "(repeatable; see --list)",
    )
    p.add_argument(
        "--list", action="store_true", help="list benchmark names and exit"
    )
    p.add_argument(
        "--out",
        help="output JSON path (default: BENCH_<date>.json in the cwd)",
    )
    p.add_argument(
        "--baseline",
        help="baseline payload to compare against (default: "
        "benchmarks/baselines/bench_baseline.json when present)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.30,
        help="relative normalized-throughput drop that counts as a "
        "regression (default 0.30)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any benchmark regresses past --threshold",
    )
    p.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --out file",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("engine", help="Section 5.3 engine report")
    p.add_argument("--gpu", default="gv100", help="gv100 or tu116")
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign and print the "
        "resilience report as JSON",
    )
    _add_matrix_args(p)
    p.add_argument("--gpu", default="gv100", help="gv100 or tu116")
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument("--units", type=int, default=32, help="conversion units")
    p.add_argument("--kill", type=int, default=0, help="dead units")
    p.add_argument("--stuck", type=int, default=0, help="stuck units")
    p.add_argument("--slow", type=int, default=0, help="slow units")
    p.add_argument(
        "--slow-factor", type=float, default=4.0,
        help="service-time multiplier of slow units",
    )
    p.add_argument(
        "--bit-flips", type=int, default=0,
        help="bit flips injected into CSC coordinate/pointer streams",
    )
    p.add_argument(
        "--drops", type=int, default=0, help="dropped tile responses"
    )
    p.add_argument(
        "--integrity", choices=("crc", "structural", "off"), default="crc",
        help="engine-boundary stream checks",
    )
    p.add_argument("--k", type=int, default=64, help="dense columns")
    p.add_argument(
        "--deadline-us", type=float, default=50.0,
        help="per-request completion deadline",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="total submissions per tile request",
    )
    p.add_argument(
        "--backoff-us", type=float, default=1.0,
        help="base retry backoff (doubles per attempt)",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "collection", help="profile a directory of Matrix Market files"
    )
    p.add_argument("directory")
    p.add_argument("--pattern", default="*.mtx")
    p.add_argument("--min-rows", type=int, default=0)
    p.add_argument("--max-rows", type=int, default=0, help="0 = no limit")
    p.add_argument(
        "--ssf-threshold", type=float, default=kernels.SSF_TH_DEFAULT
    )
    p.set_defaults(func=cmd_collection)

    p = sub.add_parser(
        "figure", help="regenerate a paper figure's data as JSON"
    )
    p.add_argument(
        "id", help="figure id: fig2, fig4, fig5, fig8, fig9, fig16"
    )
    p.add_argument(
        "--scale", type=float, default=0.5, help="corpus size multiplier"
    )
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
