"""Crash-safe parallel batch execution for SpMM requests.

The corpus-scale campaigns (Fig. 16's ~1k-matrix sweeps) are
embarrassingly parallel across requests.  This module fans a batch across
a :class:`~repro.runtime.supervisor.WorkerSupervisor`-owned process pool
while keeping three properties the serial runtime guarantees:

* **determinism** — the parent plans every request (cheap — SSF + Table 1
  prediction) and ships each worker a picklable :class:`PlanHandle`;
  execution is a pure function of ``(plan, matrix, dense)``, so worker
  records are digest-identical to serial ones and results return in
  request order (property-tested in ``tests/runtime/test_parallel.py``);
* **zero-copy operands** — handles carry
  :class:`~repro.store.layout.SegmentDescriptor` recipes instead of the
  operands themselves: the parent publishes each matrix (and explicit
  dense operand) into shared memory once per fingerprint via
  :class:`~repro.store.registry.SharedOperandRegistry`, and workers
  attach read-only views (``store.*`` counters make the shipped/pickled
  byte split measurable; see ``docs/STORAGE.md``);
* **resilience** — workers are supervised: crashes, hangs, and poison
  requests are retried with backoff and ultimately quarantined as
  structured :class:`~repro.runtime.supervisor.FailedItem` entries on the
  :class:`BatchResult`; a dead worker can no longer abort the batch
  (chaos-tested in ``tests/runtime/test_chaos.py``);
* **durability** — with ``journal=`` every completed item is checkpointed
  to an append-only :class:`~repro.runtime.journal.RunJournal`, and
  ``resume=True`` replays digest-verified entries instead of re-executing
  them (see ``docs/RELIABILITY.md``).

Worker processes memoize format stores and runtimes per fingerprint in
their own process — nothing relies on ``fork`` copy-on-write inheritance,
so ``spawn`` and ``forkserver`` start methods behave identically (the
start method is explicit on
:class:`~repro.runtime.supervisor.SupervisionPolicy`).

When the parent traces, each worker runs under its own tracer and ships
its metrics snapshot + span forest home, where they are merged via
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot` and
:meth:`~repro.telemetry.tracer.Tracer.graft` in request-index order.

``--threads`` swaps the process pool for an in-process thread pool that
executes directly on the shared :class:`~repro.formats.convert.FormatStore`
buffers (planning stays serial in the parent) — no pickling and no
shipping at all, with the same digest-identity contract.

Exposed on the CLI as ``python -m repro run --batch FILE --workers N
[--threads] [--journal FILE | --resume FILE] [--request-timeout S]
[--max-retries N] [--fail-fast]``.
"""

from __future__ import annotations

import dataclasses
import os
import time
import weakref
from dataclasses import dataclass

from ..errors import ConfigError, SupervisionError
from .cache import CacheEntry, PlanCache, matrix_fingerprint
from .journal import JOURNAL_VERSION, RunJournal, request_fingerprint
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
    #: the *concrete* backend the parent's plan resolved to (from plan
    #: provenance), so worker dispatch and cache keys match the parent's
    #: even when the parent planned under an "auto" or runtime default.
    backend: str | None = None
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
        #: supervision counters (retries, kills, ...) for this batch
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
        backend=handle.backend,
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
        runtime._effective_backend(request),
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
    from ..telemetry import Tracer
    from .fusion import FusedPlanHandle, execute_fused_handle

    if isinstance(handle, FusedPlanHandle):
        return execute_fused_handle(ctx, handle)
    config, traced = ctx
    runtime, request, capabilities, attach_events = _prepare_worker_item(
        config, handle
    )
    tracer = Tracer() if traced else None
    if traced:
        for fresh, nbytes in attach_events:
            tracer.metrics.counter(
                "store.attaches" if fresh else "store.attach_hits"
            ).inc()
            if fresh:
                tracer.metrics.counter("store.attached_bytes").inc(nbytes)
    outcome = runtime.run(
        request, capabilities=capabilities,
        enforce_ladder=handle.capabilities is not None, tracer=tracer,
    )
    if traced:
        snapshot = tracer.metrics.snapshot()
        spans = [root.to_dict() for root in tracer.roots]
    else:
        snapshot, spans = None, None
    return outcome.record.to_json(), snapshot, spans


class ParallelExecutor:
    """Fan a batch of :class:`SpmmRequest` across a supervised pool.

    ``workers=1`` degenerates to serial execution through the parent
    runtime itself (no pool, no pickling) — the reference the parallel
    path is property-tested against.  Journaling, resume, retry, and
    quarantine semantics are identical in both modes.
    """

    def __init__(
        self, runtime, *, workers: int | None = None, threads: bool = False
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.runtime = runtime
        self.workers = int(workers)
        #: True = in-process thread pool over shared operand buffers
        #: instead of a supervised process pool (no pickling at all).
        self.threads = bool(threads)

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
        tests.  Quarantined items surface on ``result.failures``; only a
        ``fail_fast`` policy makes this method raise for a worker-side
        failure.

        ``coalesce=True`` groups plan-compatible same-matrix items into
        fused wide-k windows (``coalesce_max_k`` bounds a window's summed
        dense width) before dispatch — one sparse-stream pass per window,
        per-item records digest-identical either way (see
        :mod:`repro.runtime.fusion`).  Only the process-pool path fuses:
        serial mode is the unfused reference, and threaded mode already
        shares operand buffers in-process.
        """
        tracer = self.runtime.tracer if tracer is None else tracer
        policy = policy if policy is not None else SupervisionPolicy()
        requests = list(requests)
        journal, replay, fingerprints = self._prepare_journal(
            requests, journal, resume, tracer
        )
        lost_before = journal.lost if journal is not None else 0
        with tracer.span(
            "batch",
            n_requests=len(requests),
            workers=self.workers,
            resumed=replay is not None,
        ):
            if self.workers == 1:
                result = self._run_serial(
                    requests, tracer, policy, journal, replay, fingerprints
                )
            elif self.threads:
                if chaos:
                    raise ConfigError(
                        "chaos injection requires process workers, not --threads"
                    )
                result = self._run_threaded(
                    requests, tracer, policy, journal, replay, fingerprints
                )
            else:
                result = self._run_parallel(
                    requests, tracer, policy, journal, replay, fingerprints,
                    chaos, coalesce, coalesce_max_k,
                )
        if journal is not None:
            # Always report the journal — a fresh run reports its appends,
            # a resume additionally reports the load-time trust/anomaly
            # audit, and a resume that replayed *everything* (no live
            # items) still carries a complete summary.
            if replay is not None:
                summary = replay.summary()
            else:
                summary = {
                    "path": journal.path,
                    "schema_version": JOURNAL_VERSION,
                    "total_lines": int(journal.appends),
                    "trusted_entries": int(journal.appends),
                    "anomalies": [],
                    "anomaly_counts": {},
                }
            summary["appended"] = int(journal.appends)
            lost = int(journal.lost - lost_before)
            summary["durability"] = {
                "degraded": bool(journal.degraded),
                "lost": lost,
                "reason": journal.pressure.reason("journal"),
            }
            if lost:
                tracer.metrics.counter("durability.lost").inc(lost)
            result.journal_summary = summary
        return result

    # ------------------------------------------------------------ journal
    def _prepare_journal(self, requests, journal, resume, tracer):
        """Open/load the journal; returns (journal, replay, fingerprints).

        Fingerprints are computed only when journaling is on (they hash
        the dense operand); ``replay`` is the verified journal load when
        resuming, with anomalies compacted away before new appends.
        """
        if journal is None:
            return None, None, None
        if not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        fingerprints = [
            request_fingerprint(
                r, self.runtime.config, self.runtime._effective_threshold(r)
            )
            for r in requests
        ]
        replay = None
        if resume:
            with tracer.span("journal.replay", path=journal.path) as span:
                replay = RunJournal.load(journal.path)
                if replay.anomalies:
                    journal.compact(replay)
                else:
                    journal.seed_replayed(replay)
                if span.enabled:
                    span.set_attributes(
                        trusted=len(replay.records),
                        anomalies=len(replay.anomalies),
                    )
                tracer.metrics.counter("journal.anomalies").inc(
                    len(replay.anomalies)
                )
        return journal, replay, fingerprints

    def _replay_item(self, index, record) -> BatchItemResult:
        """A batch result reconstructed from a journaled record."""
        return BatchItemResult(
            index=index,
            record=record,
            plan=SpmmPlan.from_dict(record.plan),
            cache_hit=False,
            replayed=True,
        )

    # ------------------------------------------------------------- serial
    def _run_serial(
        self, requests, tracer, policy, journal, replay, fingerprints
    ) -> BatchResult:
        """In-process execution with the same retry/journal semantics."""
        results: list = [None] * len(requests)
        failures: list[FailedItem] = []
        stats = dict.fromkeys(WorkerSupervisor.STAT_KEYS, 0)
        for i, request in enumerate(requests):
            fp = fingerprints[i] if fingerprints is not None else None
            if replay is not None and fp in replay.records:
                results[i] = self._replay_item(i, replay.records[fp])
                tracer.metrics.counter("journal.replayed").inc()
                continue
            attempt = 0
            while True:
                try:
                    outcome = self.runtime.run(request, tracer=tracer)
                except Exception as exc:
                    if policy.fail_fast:
                        raise SupervisionError(
                            f"batch item {i} failed on attempt {attempt + 1} "
                            f"({type(exc).__name__}: {exc}) and fail_fast "
                            f"is set"
                        ) from exc
                    if attempt < policy.max_retries:
                        stats["retries"] += 1
                        tracer.metrics.counter("supervisor.retries").inc()
                        time.sleep(policy.backoff_s(attempt))
                        attempt += 1
                        continue
                    stats["quarantined"] += 1
                    tracer.metrics.counter("supervisor.quarantined").inc()
                    failures.append(
                        FailedItem(
                            index=i,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            attempts=attempt + 1,
                            fingerprint=fp,
                        )
                    )
                    break
                stats["executed"] += 1
                results[i] = BatchItemResult(
                    index=i,
                    record=outcome.record,
                    plan=outcome.plan,
                    cache_hit=outcome.cache_hit,
                )
                if journal is not None:
                    if journal.append(fp, outcome.record):
                        tracer.metrics.counter("journal.appends").inc()
                break
        return BatchResult(results, failures, stats)

    # ----------------------------------------------------------- parallel
    def _run_parallel(
        self, requests, tracer, policy, journal, replay, fingerprints, chaos,
        coalesce=False, coalesce_max_k=1024,
    ) -> BatchResult:
        """Supervised process-pool execution (see the module docstring)."""
        from .fusion import (
            FusedPlanHandle,
            is_fused_payload,
            plan_fusion_groups,
        )

        n = len(requests)
        results: list = [None] * n
        hits: dict[int, bool] = {}
        plans: dict[int, SpmmPlan] = {}
        telemetry: dict[int, tuple] = {}
        traced = bool(tracer.enabled)

        to_run = []
        for i in range(n):
            fp = fingerprints[i] if fingerprints is not None else None
            if replay is not None and fp in replay.records:
                results[i] = self._replay_item(i, replay.records[fp])
                tracer.metrics.counter("journal.replayed").inc()
            else:
                to_run.append(i)

        # Fusion groups: plan-compatible same-matrix items share one
        # sparse-stream pass.  Synthetic dispatch indexes for fused
        # windows start past the real request range.
        if coalesce:
            groups, singles = plan_fusion_groups(
                self.runtime, requests, to_run, max_k=coalesce_max_k
            )
        else:
            groups, singles = [], list(to_run)
        group_members: dict[int, list] = {
            n + g: members for g, members in enumerate(groups)
        }
        if groups and traced:
            tracer.metrics.counter("coalesce.fused_windows").inc(len(groups))
            tracer.metrics.counter("coalesce.fused_requests").inc(
                sum(len(m) for m in groups)
            )
            tracer.metrics.counter("coalesce.passes_saved").inc(
                sum(len(m) - 1 for m in groups)
            )

        from ..store.registry import SharedOperandRegistry, pickled_nbytes

        registry = SharedOperandRegistry()

        def make_handle(i) -> PlanHandle:
            """Plan item ``i`` and package it for the workers.

            The item's matrix (and any explicit dense operand) is
            published to shared memory once per fingerprint — repeat
            requests over the same matrix ship only a descriptor.
            Containers without an array adapter fall back to pickling,
            counted as ``store.bytes_pickled`` so the fallback is
            visible.
            """
            request = requests[i]
            plan, _, cache_hit = self.runtime.plan(request, tracer=tracer)
            hits[i] = cache_hit
            plans[i] = plan
            fingerprint = matrix_fingerprint(request.matrix)
            operand = registry.publish_matrix(
                request.matrix, fingerprint=fingerprint
            )
            if operand is None and traced:
                if registry.pressure.is_degraded("registry"):
                    tracer.metrics.counter("store.fallback_pickle").inc()
                tracer.metrics.counter("store.bytes_pickled").inc(
                    pickled_nbytes(request.matrix)
                )
            dense_operand = None
            dense = request.dense
            if dense is not None:
                dense_operand = registry.publish_dense(dense)
                if dense_operand is not None:
                    dense = None
                elif traced:
                    # Shared memory exhausted: ship this dense operand
                    # pickled inside the handle instead.
                    tracer.metrics.counter("store.fallback_pickle").inc()
                    tracer.metrics.counter("store.bytes_pickled").inc(
                        pickled_nbytes(dense)
                    )
            return PlanHandle(
                index=i,
                plan=plan.to_dict(),
                matrix=None if operand is not None else request.matrix,
                fingerprint=fingerprint,
                k=request.k,
                seed=request.seed,
                tile_width=request.tile_width,
                ssf_threshold=request.ssf_threshold,
                backend=plan.provenance.get("backend"),
                dense=dense,
                operand=operand,
                dense_operand=dense_operand,
            )

        def handles():
            """Lazily plan items as the admission window admits them."""
            for i in singles:
                yield i, make_handle(i)
            for fused_index, members in group_members.items():
                yield fused_index, FusedPlanHandle(
                    index=fused_index,
                    handles=tuple(make_handle(i) for i in members),
                )

        def complete(index, record_json, snapshot, spans):
            """Assemble one item's result and journal it."""
            record = RunRecord.from_json(record_json)
            results[index] = BatchItemResult(
                index=index,
                record=record,
                plan=plans[index],
                cache_hit=hits[index],
            )
            if traced:
                telemetry[index] = (snapshot, spans)
            if journal is not None:
                if journal.append(fingerprints[index], record):
                    tracer.metrics.counter("journal.appends").inc()

        def on_payload(index, payload):
            """Completion checkpoint: plain item or fused fan-out."""
            if is_fused_payload(payload):
                if traced:
                    tracer.metrics.counter("coalesce.dedup_hits").inc(
                        int(payload["meta"].get("dedup_hits", 0))
                    )
                for member_index, record_json, snapshot, spans in (
                    payload["members"]
                ):
                    complete(member_index, record_json, snapshot, spans)
                return
            complete(index, *payload)

        def _refresh(descriptor):
            """The live descriptor for a token, republishing if required.

            Returns ``(descriptor, changed)``.  When an earlier heal
            already republished this token (the registry holds a newer
            segment name), the item is simply re-pointed at it; otherwise
            the segment is quarantined and reshipped from the publisher's
            source copy.
            """
            if descriptor is None:
                return None, False
            current = registry.descriptors.get(descriptor.token)
            if current is not None and current.segment != descriptor.segment:
                return current, True
            fresh = registry.republish(descriptor.token)
            if fresh is not None:
                return fresh, True
            return descriptor, False

        def _heal_handle(handle):
            operand, changed_m = _refresh(handle.operand)
            dense_operand, changed_d = _refresh(handle.dense_operand)
            if not (changed_m or changed_d):
                return None
            return dataclasses.replace(
                handle, operand=operand, dense_operand=dense_operand
            )

        def heal(item, error_type, message):
            """Repair seam: republish damaged operands before the retry.

            A worker that detects operand corruption fails its item with
            a structured ``OperandCorruptionError``; a worker attaching a
            descriptor whose segment was already quarantined sees
            ``FileNotFoundError``.  Both heal the same way: every
            shared-memory operand the item references is republished
            under a *fresh* segment name (worker attach memos are keyed
            by segment name, so the retry re-attaches and re-verifies)
            and the item is re-queued with the new descriptors.  Returns
            ``None`` — retry unchanged — for every other failure.
            """
            if error_type not in ("OperandCorruptionError", "FileNotFoundError"):
                return None
            if traced and error_type == "OperandCorruptionError":
                tracer.metrics.counter("integrity.corruption_detected").inc()
            if isinstance(item, FusedPlanHandle):
                members = [_heal_handle(h) for h in item.handles]
                if not any(m is not None for m in members):
                    return None
                return dataclasses.replace(
                    item,
                    handles=tuple(
                        m if m is not None else h
                        for m, h in zip(members, item.handles)
                    ),
                )
            return _heal_handle(item)

        supervisor = WorkerSupervisor(
            execute_handle,
            (self.runtime.config, traced),
            workers=self.workers,
            policy=policy,
            chaos=chaos,
            heal=heal,
        )
        failures: list[FailedItem] = []
        try:
            if to_run:
                _, failures = supervisor.run(
                    handles(), tracer=tracer, on_payload=on_payload
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
                if s["republished"]:
                    tracer.metrics.counter("integrity.republished").inc(
                        s["republished"]
                    )
            # Workers have drained (or died) by now; the batch's segments
            # are unlinked here regardless of outcome.
            registry.close()
        # A quarantined fused window fans out into per-member failures
        # (the supervisor retried the window as a unit, so no member
        # half-succeeded) before fingerprints are attached.
        if group_members:
            expanded: list[FailedItem] = []
            for failed in failures:
                members = group_members.get(failed.index)
                if members is None:
                    expanded.append(failed)
                    continue
                for i in members:
                    expanded.append(
                        FailedItem(
                            index=i,
                            error_type=failed.error_type,
                            message=failed.message,
                            attempts=failed.attempts,
                            phase=failed.phase,
                        )
                    )
            expanded.sort(key=lambda f: f.index)
            failures = expanded
        if fingerprints is not None:
            for failed in failures:
                failed.fingerprint = fingerprints[failed.index]
        if traced:
            # Merge in request-index order so gauge last-writer-wins and
            # span order are deterministic regardless of completion order.
            for index in sorted(telemetry):
                snapshot, spans = telemetry[index]
                tracer.metrics.merge_snapshot(snapshot)
                for span_dict in spans:
                    root = tracer.graft(span_dict)
                    root.set_attribute("batch_index", index)
        return BatchResult(results, failures, supervisor.stats)

    # ----------------------------------------------------------- threaded
    def _run_threaded(
        self, requests, tracer, policy, journal, replay, fingerprints
    ) -> BatchResult:
        """In-process thread-pool execution over shared operand buffers.

        The operand plane's no-pickling mode: planning, cache bookkeeping,
        and dense-operand resolution happen serially in the parent (in
        submission order, so plan-cache semantics match ``workers=1``),
        then execution fans out across a thread pool whose workers read
        the *same* :class:`~repro.formats.convert.FormatStore` containers —
        zero bytes shipped, zero bytes pickled.  Each item is a pure
        function of ``(plan, matrix, dense)``, so records stay
        digest-identical to serial execution (property-tested in
        ``tests/store/test_threaded.py``).
        """
        import concurrent.futures

        from ..telemetry import Tracer, span_summary

        n = len(requests)
        results: list = [None] * n
        failures: list[FailedItem] = []
        stats = dict.fromkeys(WorkerSupervisor.STAT_KEYS, 0)
        traced = bool(tracer.enabled)
        planned: dict[int, tuple] = {}
        to_run = []
        for i, request in enumerate(requests):
            fp = fingerprints[i] if fingerprints is not None else None
            if replay is not None and fp in replay.records:
                results[i] = self._replay_item(i, replay.records[fp])
                tracer.metrics.counter("journal.replayed").inc()
                continue
            plan, store, cache_hit = self.runtime.plan(request, tracer=tracer)
            dense = self.runtime._resolve_dense(request, store)
            planned[i] = (plan, store, cache_hit, dense)
            to_run.append(i)

        def job(i):
            """One item: execute (with retries) on the shared store."""
            request = requests[i]
            plan, store, cache_hit, dense = planned[i]
            attempt = 0
            while True:
                try:
                    item_tracer = Tracer() if traced else None
                    use = item_tracer if traced else self.runtime.tracer
                    with use.span("run") as root:
                        execution = self.runtime.executor.execute(
                            plan,
                            request.matrix,
                            dense,
                            store=store,
                            request=request,
                            tracer=use,
                        )
                        record = RunRecord.from_execution(execution)
                        if root.enabled:
                            root.set_attributes(
                                algorithm=execution.plan.algorithm,
                                cache_hit=cache_hit,
                                dense_cols=request.dense_cols,
                                gpu=self.runtime.config.name,
                                threaded=True,
                            )
                    if traced:
                        record.extras["trace_summary"] = span_summary(root)
                except Exception as exc:
                    if policy.fail_fast:
                        raise SupervisionError(
                            f"batch item {i} failed on attempt {attempt + 1} "
                            f"({type(exc).__name__}: {exc}) and fail_fast "
                            f"is set"
                        ) from exc
                    if attempt < policy.max_retries:
                        time.sleep(policy.backoff_s(attempt))
                        attempt += 1
                        continue
                    return ("failed", i, exc, attempt + 1)
                return ("ok", i, record, execution.plan, cache_hit,
                        attempt, item_tracer)

        telemetry: dict[int, object] = {}
        pool_size = min(self.workers, max(1, len(to_run)))
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=pool_size
        ) as pool:
            futures = [pool.submit(job, i) for i in to_run]
            for future in concurrent.futures.as_completed(futures):
                outcome = future.result()  # re-raises fail_fast errors
                if outcome[0] == "failed":
                    _, i, exc, attempts = outcome
                    stats["retries"] += attempts - 1
                    stats["quarantined"] += 1
                    tracer.metrics.counter("supervisor.quarantined").inc()
                    failures.append(
                        FailedItem(
                            index=i,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            attempts=attempts,
                            fingerprint=(
                                fingerprints[i]
                                if fingerprints is not None
                                else None
                            ),
                        )
                    )
                    continue
                _, i, record, plan, cache_hit, retries, item_tracer = outcome
                stats["retries"] += retries
                if retries:
                    tracer.metrics.counter("supervisor.retries").inc(retries)
                stats["executed"] += 1
                results[i] = BatchItemResult(
                    index=i, record=record, plan=plan, cache_hit=cache_hit
                )
                if item_tracer is not None:
                    telemetry[i] = item_tracer
                if journal is not None:
                    if journal.append(fingerprints[i], record):
                        tracer.metrics.counter("journal.appends").inc()
        # Single-writer persistence flush, after every thread has finished
        # mutating the shared stores.
        writeback = getattr(self.runtime.cache, "writeback", None)
        if writeback is not None:
            for i in to_run:
                request = requests[i]
                writeback(
                    PlanCache.key_for(
                        request,
                        self.runtime.config,
                        FULL_CAPABILITIES,
                        self.runtime._effective_threshold(request),
                        self.runtime._effective_backend(request),
                    )
                )
        if traced:
            for index in sorted(telemetry):
                item_tracer = telemetry[index]
                tracer.metrics.merge_snapshot(item_tracer.metrics.snapshot())
                for span in item_tracer.roots:
                    root = tracer.graft(span.to_dict())
                    root.set_attribute("batch_index", index)
        return BatchResult(results, failures, stats)
