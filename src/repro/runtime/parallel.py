"""Crash-safe batch execution for SpMM requests.

The corpus-scale campaigns (Fig. 16's ~1k-matrix sweeps) are
embarrassingly parallel across requests.  :class:`ParallelExecutor` runs
a batch on one :class:`~repro.runtime.supervisor.WorkerSupervisor` loop,
over one of two transports — the **in-process reference** (``workers=1``:
the parent's own runtime, called from the supervisor's loop) or a
supervised **process pool**, optionally fusing same-matrix items into
wide-k windows (:mod:`repro.runtime.fusion`) — while ``run_batch``
itself owns journal replay, result assembly and the journal append on
completion.  Retry, backoff, quarantine and ``fail_fast`` are the
supervisor's, for planning failures too; this module only passes the
policy through.  Either way the batch keeps four properties:

* **determinism** — the parent plans every request (cheap — SSF + Table 1
  prediction) and ships each worker a picklable :class:`PlanHandle`;
  execution is a pure function of ``(plan, matrix, dense)``, so worker
  records are digest-identical to serial ones and results return in
  request order (property-tested in ``tests/runtime/test_parallel.py``);
* **zero-copy operands** — :func:`make_handle` publishes each matrix (and
  explicit dense operand) into shared memory once per fingerprint via
  :class:`~repro.store.registry.SharedOperandRegistry`, so handles carry
  :class:`~repro.store.layout.SegmentDescriptor` recipes and workers
  attach read-only views (``store.*`` counters make the shipped/pickled
  byte split measurable; see ``docs/STORAGE.md``);
* **resilience** — workers are supervised: crashes, hangs, and poison
  requests are retried with backoff (after :func:`heal` republishes a
  corrupted operand) and ultimately quarantined as structured
  :class:`~repro.runtime.supervisor.FailedItem` entries on the
  :class:`BatchResult`; a dead worker cannot abort the batch
  (chaos-tested in ``tests/runtime/test_chaos.py``);
* **durability** — with ``journal=`` every completed item is checkpointed
  to an append-only :class:`~repro.runtime.journal.RunJournal`, and
  ``resume=True`` replays digest-verified entries instead of re-executing
  them (see ``docs/RELIABILITY.md``).

The resident service (:mod:`repro.service.server`) builds, dispatches
and heals its units with the same :func:`make_handle`,
:func:`~repro.runtime.fusion.dispatch_unit` and :func:`heal`.

Worker processes memoize format stores and runtimes per fingerprint in
their own process — nothing relies on ``fork`` copy-on-write inheritance,
so ``spawn`` and ``forkserver`` start methods behave identically (the
start method is explicit on
:class:`~repro.runtime.supervisor.SupervisionPolicy`).

When the parent traces, each worker runs under its own tracer and ships
its metrics snapshot + span forest home, where they are merged via
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot` and
:meth:`~repro.telemetry.tracer.Tracer.graft` in request-index order.

Exposed on the CLI as ``python -m repro run --batch FILE --workers N
[--no-coalesce] [--journal FILE | --resume FILE] [--request-timeout S]
[--max-retries N] [--fail-fast]``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import weakref
from dataclasses import dataclass

from ..errors import ConfigError
from .cache import CacheEntry, PlanCache, matrix_fingerprint
from .fusion import (
    FusedPlanHandle,
    dispatch_unit,
    execute_fused_handle,
    fan_out_failure,
    fan_out_payload,
    plan_fusion_groups,
)
from .journal import JournalReplay, RunJournal, request_fingerprint
from .plan import FULL_CAPABILITIES, SpmmPlan, SpmmRequest
from .record import RunRecord
from .supervisor import FailedItem, SupervisionPolicy, WorkerSupervisor

#: Worker-process-local memo: matrix fingerprint → FormatStore.  Populated
#: by each worker as it encounters new matrices (works under any start
#: method — no copy-on-write assumption).  Weak values: a store lives
#: exactly as long as some entry of the worker's bounded plan cache uses
#: it, so a resident worker does not keep every matrix it ever served.
_WORKER_STORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

#: Worker-process-local memo: (gpu name, ssf threshold) → SpmmRuntime, so
#: one worker process keeps a single plan cache across all its batch items.
_WORKER_RUNTIMES: dict = {}


@dataclass(frozen=True)
class PlanHandle:
    """Picklable description of one pre-planned batch item.

    Everything a worker needs to reproduce the parent's run exactly: the
    serialized plan, the matrix (cheap COO-backed containers), and the
    request fields that reconstruct the same dense operand and cache key.
    """

    index: int
    plan: dict
    matrix: object
    fingerprint: str
    k: int | None
    seed: int
    tile_width: int
    ssf_threshold: float | None
    dense: object = None
    #: serialized Capabilities the parent planned under (None = full).
    #: Shipping this keeps a demoted plan from being installed under the
    #: full-capability cache key in the worker, which would silently
    #: demote later full-capability requests for the same matrix.
    capabilities: dict | None = None
    #: :class:`~repro.store.layout.SegmentDescriptor` for the matrix when
    #: it was published to shared memory — ``matrix`` is then ``None`` and
    #: workers attach zero-copy views instead of unpickling a copy.
    operand: object = None
    #: descriptor for an explicit dense operand shipped the same way.
    dense_operand: object = None


@dataclass
class BatchItemResult:
    """One batch item's outcome, in request order."""

    index: int
    record: RunRecord
    plan: SpmmPlan
    #: whether the *parent's* plan cache already held this request's entry
    cache_hit: bool
    #: True when the record came from a resumed journal, not execution
    replayed: bool = False


class BatchResult(list):
    """The outcome of one batch: a list of results plus failure metadata.

    Indexes and iterates like the plain list older callers expect — one
    :class:`BatchItemResult` per request, in request order, with ``None``
    at quarantined indexes — and additionally carries the structured
    failures, supervision counters, and journal summary.
    """

    def __init__(self, items, failures=(), stats=None, journal_summary=None):
        super().__init__(items)
        #: quarantined items, as structured FailedItem entries
        self.failures: list[FailedItem] = list(failures)
        #: supervision counters (retries, kills, ...) for this batch;
        #: ``quarantined`` counts planning failures too.  In-process a
        #: request is planned inside its task, so a planning failure
        #: there is retried (and counted) like any other failure.
        self.stats: dict = dict(stats or {})
        #: the resume-time journal load report, when resuming
        self.journal_summary: dict | None = journal_summary

    @property
    def ok(self) -> bool:
        """True when every item completed (possibly after retries)."""
        return not self.failures

    @property
    def n_replayed(self) -> int:
        """How many items were replayed from the journal."""
        return sum(1 for r in self if r is not None and r.replayed)

    def summary(self) -> dict:
        """Plain-JSON batch report (the CLI's ``batch_summary``)."""
        return {
            "n_items": len(self),
            "completed": sum(1 for r in self if r is not None),
            "replayed": self.n_replayed,
            "failed": [f.to_dict() for f in self.failures],
            "supervision": dict(self.stats),
            "journal": self.journal_summary,
        }


def _handle_to_request(handle: PlanHandle) -> tuple[SpmmRequest, list]:
    """Rebuild the worker-side request a handle describes.

    Operands shipped through the operand plane are attached as zero-copy
    shared-memory views (memoized per worker process); pickled fallbacks
    are used verbatim.  A seeded operand (none shipped) is materialized
    per request and passed as the explicit ``dense``: the runtime would
    memoize it in the plan-cache store, so a resident worker serving
    fresh seeds would keep every operand it ever served.  Returns
    ``(request, attach_events)`` where each event is ``(fresh, nbytes)``
    for the ``store.attaches`` / ``store.attach_hits`` counters.
    """
    from ..store.registry import attach_dense, attach_matrix
    from .cache import seed_fingerprint

    events = []
    matrix = handle.matrix
    if matrix is None and handle.operand is not None:
        matrix, fresh = attach_matrix(handle.operand)
        seed_fingerprint(matrix, handle.fingerprint)
        events.append((fresh, handle.operand.total_bytes))
    dense = handle.dense
    if dense is None and handle.dense_operand is not None:
        dense, fresh = attach_dense(handle.dense_operand)
        events.append((fresh, handle.dense_operand.total_bytes))
    request = SpmmRequest(
        matrix,
        dense=dense,
        k=handle.k,
        seed=handle.seed,
        tile_width=handle.tile_width,
        ssf_threshold=handle.ssf_threshold,
    )
    if request.dense is None:
        request.dense = request.resolve_dense()
    return request, events


def _worker_runtime(config, ssf_threshold):
    """The worker-process-local runtime for one (gpu, threshold) pair."""
    from . import SpmmRuntime

    key = (config.name, ssf_threshold)
    runtime = _WORKER_RUNTIMES.get(key)
    if runtime is None:
        runtime = SpmmRuntime(config, ssf_threshold=ssf_threshold)
        _WORKER_RUNTIMES[key] = runtime
    return runtime


def _prepare_worker_item(config, handle: PlanHandle):
    """Rebuild one handle's request in this worker and seed its caches.

    Shared by the plain per-item path and the fused (coalesced) path:
    attaches operands, memoizes the per-fingerprint format store, and
    installs the parent's plan under the exact cache key the run will
    look up.  Returns ``(runtime, request, capabilities, attach_events)``.
    """
    from ..formats.convert import FormatStore
    from .plan import Capabilities

    request, attach_events = _handle_to_request(handle)
    runtime = _worker_runtime(config, handle.ssf_threshold)
    capabilities = (
        Capabilities.from_dict(handle.capabilities)
        if handle.capabilities is not None
        else FULL_CAPABILITIES
    )
    key = PlanCache.key_for(
        request, runtime.config, capabilities,
        runtime._effective_threshold(request),
    )
    if key not in runtime.cache._entries:
        store = _WORKER_STORES.get(handle.fingerprint)
        if store is None:
            store = FormatStore(request.matrix)
            _WORKER_STORES[handle.fingerprint] = store
        runtime.cache.insert(
            key, CacheEntry(plan=SpmmPlan.from_dict(handle.plan), store=store)
        )
    return runtime, request, capabilities, attach_events


def execute_handle(ctx, handle):
    """Execute one pre-planned item in a worker process.

    The supervisor's task function (module-level so ``spawn`` can pickle
    it by reference).  ``ctx`` is ``(config, traced)``; returns
    ``(record_json, metrics_snapshot, span_dicts)`` — all plain picklable
    data, with the tracer payloads ``None`` when the parent is not
    tracing.  The format store is rebuilt from the handle's matrix on
    first use and memoized per fingerprint, so the worker path is correct
    under every start method.

    A :class:`~repro.runtime.fusion.FusedPlanHandle` (a coalesced window
    of same-matrix requests) dispatches to
    :func:`~repro.runtime.fusion.execute_fused_handle` and returns its
    fused payload dict instead of the plain tuple.
    """
    if isinstance(handle, FusedPlanHandle):
        return execute_fused_handle(ctx, handle)
    config, traced = ctx
    runtime, request, capabilities, attach_events = _prepare_worker_item(
        config, handle
    )
    tracer = _item_tracer(traced, attach_events)
    outcome = runtime.run(
        request, capabilities=capabilities,
        enforce_ladder=handle.capabilities is not None, tracer=tracer,
    )
    return (outcome.record.to_json(), *_tracer_payload(tracer))


def _item_tracer(traced: bool, attach_events):
    """A worker's tracer for one item (None when the parent is not
    tracing), with the item's operand attaches already counted."""
    from ..telemetry import Tracer

    if not traced:
        return None
    tracer = Tracer()
    for fresh, nbytes in attach_events:
        tracer.metrics.counter(
            "store.attaches" if fresh else "store.attach_hits"
        ).inc()
        if fresh:
            tracer.metrics.counter("store.attached_bytes").inc(nbytes)
    return tracer


def _tracer_payload(tracer) -> tuple:
    """``(metrics_snapshot, span_dicts)`` shipped home, or Nones."""
    if tracer is None:
        return None, None
    return tracer.metrics.snapshot(), [root.to_dict() for root in tracer.roots]


def make_handle(
    index: int, request, plan: SpmmPlan, registry, *,
    capabilities=None, metrics=None,
) -> PlanHandle:
    """Package one planned request for the workers.

    The matrix (and any explicit dense operand) is published to
    ``registry``'s shared memory once per fingerprint, so repeats ship
    only a descriptor.  An operand that cannot be published (no array
    adapter, or shared memory exhausted) rides pickled in the handle,
    counted on ``metrics`` (None = uncounted) as ``store.bytes_pickled``
    plus ``store.fallback_pickle`` once the registry plane is degraded.
    ``capabilities`` is the plan's degraded capability set (None = full).
    """
    fingerprint = matrix_fingerprint(request.matrix)
    operand = registry.publish_matrix(request.matrix, fingerprint=fingerprint)
    if operand is None:
        _count_pickled(registry, request.matrix, metrics)
    dense, dense_operand = request.dense, None
    if dense is not None:
        dense_operand = registry.publish_dense(dense)
        if dense_operand is None:
            _count_pickled(registry, dense, metrics)
        else:
            dense = None
    return PlanHandle(
        index=index,
        plan=plan.to_dict(),
        matrix=None if operand is not None else request.matrix,
        fingerprint=fingerprint,
        k=request.k,
        seed=request.seed,
        tile_width=request.tile_width,
        ssf_threshold=request.ssf_threshold,
        dense=dense,
        capabilities=(
            capabilities.to_dict() if capabilities is not None else None
        ),
        operand=operand,
        dense_operand=dense_operand,
    )


def _count_pickled(registry, operand, metrics) -> None:
    """Count one operand shipped pickled because it was not published."""
    from ..store.registry import pickled_nbytes

    if metrics is None:
        return
    if registry.pressure.is_degraded("registry"):
        metrics.counter("store.fallback_pickle").inc()
    metrics.counter("store.bytes_pickled").inc(pickled_nbytes(operand))


def heal(registry, metrics, item, error_type: str, message: str):
    """Repair seam: republish an item's damaged operands before its retry.

    A worker that detects corruption fails its item with a structured
    ``OperandCorruptionError``; one attaching a segment an earlier heal
    (or a selfcheck) already quarantined sees ``FileNotFoundError``.
    Both heal alike: every operand of the item (matrix and dense, of
    each fused member) is republished from ``registry``'s source copy
    under a *fresh* segment name — worker attach memos are keyed by
    segment name, so the retry re-attaches and re-verifies — or
    re-pointed at the segment an earlier heal republished.  Each event
    counts once on ``metrics`` (``integrity.corruption_detected``,
    ``integrity.republished``).  Returns the replacement item, or None
    (retry unchanged).  Bind the first two arguments with
    ``functools.partial`` for the supervisor's ``heal`` seam.
    """
    if error_type not in ("OperandCorruptionError", "FileNotFoundError"):
        return None
    if error_type == "OperandCorruptionError":
        metrics.counter("integrity.corruption_detected").inc()

    def refresh(descriptor):
        if descriptor is None:
            return None
        current = registry.descriptors.get(descriptor.token)
        if current is not None and current.segment != descriptor.segment:
            return current
        fresh = registry.republish(descriptor.token)
        if fresh is None:
            return descriptor
        metrics.counter("integrity.republished").inc()
        return fresh

    fused = isinstance(item, FusedPlanHandle)
    healed = []
    for handle in item.handles if fused else (item,):
        operand = refresh(handle.operand)
        dense_operand = refresh(handle.dense_operand)
        if operand is not handle.operand or (
            dense_operand is not handle.dense_operand
        ):
            handle = dataclasses.replace(
                handle, operand=operand, dense_operand=dense_operand
            )
        healed.append(handle)
    if fused:
        if all(new is old for new, old in zip(healed, item.handles)):
            return None
        return dataclasses.replace(item, handles=tuple(healed))
    return None if healed[0] is item else healed[0]


class ParallelExecutor:
    """Run a batch of :class:`SpmmRequest` in-process or on a supervised pool.

    ``workers=1`` runs each request through the parent runtime itself, on
    the supervisor's in-process transport (no pool, no pickling) — the
    reference the pool is property-tested against.  Both modes run on
    one :class:`~repro.runtime.supervisor.WorkerSupervisor` loop, so
    journaling, resume, retry, and quarantine semantics are identical.
    """

    def __init__(self, runtime, *, workers: int | None = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.runtime = runtime
        self.workers = int(workers)

    def run_batch(
        self,
        requests: list,
        *,
        tracer=None,
        policy: SupervisionPolicy | None = None,
        journal=None,
        resume: bool = False,
        chaos: dict | None = None,
        coalesce: bool = False,
        coalesce_max_k: int = 1024,
    ) -> BatchResult:
        """Execute every request, returning results in request order.

        ``policy`` configures supervision (deadlines, retries, backoff,
        fail-fast, start method); ``journal`` (a path or
        :class:`RunJournal`) checkpoints each completed item, and
        ``resume=True`` first replays the journal's digest-verified
        entries, executing only the remainder.  ``chaos`` is the
        fault-injection seam (index →
        :class:`~repro.runtime.supervisor.ChaosFault`) used by the chaos
        tests.  Quarantined items surface on ``result.failures`` — on the
        pool, a request whose planning raises is quarantined alone
        (``phase="plan"``, ``attempts=1``; in-process it is retried first,
        see :attr:`BatchResult.stats`); only a ``fail_fast`` policy makes
        this method raise for a failed item.

        ``coalesce=True`` groups plan-compatible same-matrix items into
        fused wide-k windows (``coalesce_max_k`` bounds a window's summed
        dense width) before dispatch — one sparse-stream pass per window,
        per-item records digest-identical either way (see
        :mod:`repro.runtime.fusion`).  Only the process pool fuses: the
        in-process path is the unfused reference.
        """
        tracer = self.runtime.tracer if tracer is None else tracer
        policy = policy if policy is not None else SupervisionPolicy()
        requests = list(requests)
        journal, replay, fingerprints = self._prepare_journal(
            requests, journal, resume, tracer
        )
        lost_before = journal.lost if journal is not None else 0
        results: list = [None] * len(requests)
        failures: list[FailedItem] = []
        to_run = []
        for i in range(len(requests)):
            if replay is None or fingerprints[i] not in replay.records:
                to_run.append(i)
                continue
            record = replay.records[fingerprints[i]]
            results[i] = BatchItemResult(
                index=i, record=record, plan=SpmmPlan.from_dict(record.plan),
                cache_hit=False, replayed=True,
            )
            tracer.metrics.counter("journal.replayed").inc()

        def complete(item: BatchItemResult) -> None:
            """Checkpoint one executed item: keep its result, journal it."""
            results[item.index] = item
            if journal is not None:
                journal.append(fingerprints[item.index], item.record)

        def fail(failed: FailedItem, item=None) -> None:
            """Keep one quarantine per request (a fused window fans out)."""
            for member in fan_out_failure(failed, item):
                if fingerprints is not None:
                    member.fingerprint = fingerprints[member.index]
                failures.append(member)

        with tracer.span(
            "batch",
            n_requests=len(requests),
            workers=self.workers,
            resumed=replay is not None,
        ):
            if self.workers == 1:  # the parent's runtime, in the loop
                def run_item(_ctx, i) -> BatchItemResult:
                    # keep only what the batch keeps: the supervisor holds
                    # every payload, and an outcome holds its dense output
                    out = self.runtime.run(requests[i], tracer=tracer)
                    return BatchItemResult(
                        i, out.record, out.plan, cache_hit=out.cache_hit
                    )

                supervisor = WorkerSupervisor(
                    run_item, None, workers=1, policy=policy
                )
                supervisor.in_process = True
                supervisor.run(
                    ((i, i) for i in to_run), tracer=tracer, on_failure=fail,
                    on_payload=lambda _i, item: complete(item),
                )
                stats = supervisor.stats
            else:
                stats = self._run_pool(
                    requests, to_run, complete, fail, tracer, policy, chaos,
                    coalesce, coalesce_max_k,
                )
        failures.sort(key=lambda f: f.index)
        result = BatchResult(results, failures, stats)
        if journal is not None:
            # Always report the journal — a fresh run reports its appends,
            # a resume additionally reports the load-time trust/anomaly
            # audit, and a resume that replayed *everything* (no live
            # items) still carries a complete summary.
            summary = (replay or JournalReplay(path=journal.path)).summary()
            if replay is None:
                summary["total_lines"] = summary["trusted_entries"] = int(
                    journal.appends
                )
            summary["appended"] = int(journal.appends)
            summary["durability"] = {
                "degraded": bool(journal.degraded),
                "lost": int(journal.lost - lost_before),
                "reason": journal.pressure.reason("journal"),
            }
            result.journal_summary = summary
        return result

    # ------------------------------------------------------------ journal
    def _prepare_journal(self, requests, journal, resume, tracer):
        """Open/load the journal; returns (journal, replay, fingerprints).

        Fingerprints are computed only when journaling is on (they hash
        the dense operand); ``replay`` is the verified journal load when
        resuming, with anomalies compacted away before new appends.  The
        journal counts its appends and losses on the tracer's metrics.
        """
        if journal is None:
            return None, None, None
        if not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        journal.metrics = tracer.metrics
        fingerprints = [
            request_fingerprint(
                r, self.runtime.config, self.runtime._effective_threshold(r)
            )
            for r in requests
        ]
        replay = None
        if resume:
            with tracer.span("journal.replay", path=journal.path) as span:
                replay = journal.resume()
                if span.enabled:
                    span.set_attributes(
                        trusted=len(replay.records),
                        anomalies=len(replay.anomalies),
                    )
                tracer.metrics.counter("journal.anomalies").inc(
                    len(replay.anomalies)
                )
        return journal, replay, fingerprints

    # --------------------------------------------------------------- pool
    def _run_pool(
        self, requests, to_run, complete, fail, tracer, policy, chaos,
        coalesce, coalesce_max_k,
    ):
        """Supervised process-pool execution (see the module docstring).

        Returns the supervision stats; each executed item goes to
        ``complete`` as its payload arrives, each quarantined one to
        ``fail``.
        """
        from ..store.registry import SharedOperandRegistry

        traced = bool(tracer.enabled)
        planned: dict[int, tuple] = {}
        telemetry: dict[int, tuple] = {}

        # Dispatch units: plan-compatible same-matrix items fuse into one
        # window, whose synthetic index starts past the real request range.
        if coalesce:
            groups, singles = plan_fusion_groups(
                self.runtime, requests, to_run, max_k=coalesce_max_k
            )
        else:
            groups, singles = [], to_run
        units = [(i, [i]) for i in singles]
        units += [(len(requests) + g, members) for g, members in enumerate(groups)]

        registry = SharedOperandRegistry()

        def plan_handle(i) -> PlanHandle:
            request = requests[i]
            plan, _, cache_hit = self.runtime.plan(request, tracer=tracer)
            planned[i] = (plan, cache_hit)
            return make_handle(
                i, request, plan, registry,
                metrics=tracer.metrics if traced else None,
            )

        def items():
            """Lazily plan units as the admission window admits them."""
            for index, members in units:
                yield from dispatch_unit(
                    index, [(i, i) for i in members], plan_handle,
                    tracer.metrics,
                )

        def on_payload(index, payload):
            for i, (record_json, snapshot, spans) in fan_out_payload(
                index, payload, tracer.metrics
            ):
                plan, cache_hit = planned[i]
                complete(
                    BatchItemResult(
                        index=i,
                        record=RunRecord.from_json(record_json),
                        plan=plan,
                        cache_hit=cache_hit,
                    )
                )
                if traced:
                    telemetry[i] = (snapshot, spans)

        supervisor = WorkerSupervisor(
            execute_handle,
            (self.runtime.config, traced),
            workers=self.workers,
            policy=policy,
            chaos=chaos,
            heal=functools.partial(heal, registry, tracer.metrics),
        )
        try:
            if to_run:
                supervisor.run(
                    items(), tracer=tracer, on_payload=on_payload,
                    on_failure=fail,
                )
        finally:
            if traced:
                s = registry.stats
                tracer.metrics.counter("store.bytes_shipped").inc(
                    s["bytes_shipped"]
                )
                tracer.metrics.counter("store.segments").inc(
                    s["segments_created"]
                )
                tracer.metrics.counter("store.publish_hits").inc(
                    s["publish_hits"]
                )
                tracer.metrics.counter("store.dense_dedup_hits").inc(
                    s["dense_dedup_hits"]
                )
                if s["publish_failures"]:
                    tracer.metrics.counter("store.publish_failures").inc(
                        s["publish_failures"]
                    )
            # Workers have drained (or died) by now; the batch's segments
            # are unlinked here regardless of outcome.
            registry.close()
        if traced:
            # Merge in request-index order so gauge last-writer-wins and
            # span order are deterministic regardless of completion order.
            for index in sorted(telemetry):
                snapshot, spans = telemetry[index]
                tracer.metrics.merge_snapshot(snapshot)
                for span_dict in spans:
                    root = tracer.graft(span_dict)
                    root.set_attribute("batch_index", index)
        return supervisor.stats
