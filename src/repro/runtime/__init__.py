"""Unified planner/executor runtime for the simulated SpMM system.

This package separates the paper's *decision* from its *execution*:

- :class:`Planner` profiles the matrix (SSF, Eq. 2), predicts Table 1
  traffic, and emits an immutable, serializable :class:`SpmmPlan`;
- :class:`Executor` materializes the plan against the simulated kernels
  (a degraded rung is a plan made under constrained
  :class:`Capabilities`);
- :class:`PlanCache` memoizes plans *and* their format/engine conversions
  per (matrix fingerprint × dense width × GPU config);
- :class:`RunRecord` is the JSON-serializable trace of one executed plan.

:class:`SpmmRuntime` is the facade the CLI, hybrid kernels, batch
executor and service all route through.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..formats.convert import FormatStore
from ..gpu.config import GPUConfig
from ..telemetry import NULL_TRACER, span_summary
from .cache import (
    CacheEntry,
    PlanCache,
    invalidate_fingerprint,
    matrix_fingerprint,
    mirror_cache_gauges,
    seed_fingerprint,
)
from .executor import ExecutionResult, Executor
from .plan import (
    FULL_CAPABILITIES,
    PLAN_ALGORITHMS,
    Capabilities,
    SpmmPlan,
    SpmmRequest,
)
from .journal import (
    JOURNAL_VERSION,
    JournalReplay,
    RunJournal,
    request_fingerprint,
)
from .fusion import (
    FUSED_PAYLOAD_VERSION,
    FusedPlanHandle,
    execute_fused_handle,
    is_fused_payload,
    plan_fusion_groups,
)
from .parallel import (
    BatchItemResult,
    BatchResult,
    ParallelExecutor,
    PlanHandle,
)
from .planner import PLANNER_VERSION, Planner
from .pressure import PressureEvent, ResourcePressure, classify_oserror
from .record import RECORD_VERSION, RunRecord
from .supervisor import (
    ChaosFault,
    FailedItem,
    SupervisionPolicy,
    WorkerSupervisor,
)

__all__ = [
    "BatchItemResult",
    "BatchResult",
    "Capabilities",
    "CacheEntry",
    "ChaosFault",
    "ExecutionResult",
    "Executor",
    "FULL_CAPABILITIES",
    "FUSED_PAYLOAD_VERSION",
    "FailedItem",
    "FusedPlanHandle",
    "JOURNAL_VERSION",
    "JournalReplay",
    "PLANNER_VERSION",
    "PLAN_ALGORITHMS",
    "ParallelExecutor",
    "PlanCache",
    "PlanHandle",
    "Planner",
    "PressureEvent",
    "RECORD_VERSION",
    "ResourcePressure",
    "RunJournal",
    "RunOutcome",
    "RunRecord",
    "SpmmPlan",
    "SpmmRequest",
    "SpmmRuntime",
    "SupervisionPolicy",
    "WorkerSupervisor",
    "classify_oserror",
    "execute_fused_handle",
    "invalidate_fingerprint",
    "is_fused_payload",
    "matrix_fingerprint",
    "plan_fusion_groups",
    "request_fingerprint",
    "seed_fingerprint",
]


@dataclass
class RunOutcome:
    """What :meth:`SpmmRuntime.run` hands back.

    ``cache_hit`` lives here rather than on the record on purpose: a hit
    must reproduce the cold run's record bit-for-bit, so cache status can
    never be part of the record itself.
    """

    record: RunRecord
    execution: ExecutionResult
    plan: SpmmPlan
    cache_hit: bool

    @property
    def run(self):
        """The executed :class:`~repro.kernels.hybrid.VariantRun`."""
        return self.execution.run


class SpmmRuntime:
    """Plan, cache, execute, record — the one front door for SpMM runs."""

    def __init__(
        self,
        config: GPUConfig,
        *,
        ssf_threshold: float | None = None,
        cache: PlanCache | None = None,
        tracer=None,
    ):
        self.config = config
        self.planner = Planner(config, ssf_threshold)
        self.executor = Executor(config)
        self.cache = cache if cache is not None else PlanCache()
        #: telemetry sink for every run; NULL_TRACER = disabled, zero cost
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------ planning
    def _effective_threshold(self, request: SpmmRequest) -> float:
        return (
            request.ssf_threshold
            if request.ssf_threshold is not None
            else self.planner.ssf_threshold
        )

    def plan(
        self,
        request: SpmmRequest,
        capabilities: Capabilities = FULL_CAPABILITIES,
        *,
        tracer=None,
    ) -> tuple[SpmmPlan, FormatStore, bool]:
        """Plan ``request``, consulting the cache first.

        Returns ``(plan, store, cache_hit)``; the store carries every
        format/engine conversion already materialized for this key.
        """
        tracer = self.tracer if tracer is None else tracer
        key = PlanCache.key_for(
            request,
            self.config,
            capabilities,
            self._effective_threshold(request),
        )
        with tracer.span("cache_lookup") as span:
            entry = self.cache.lookup(key)
            if span.enabled:
                span.set_attribute("hit", entry is not None)
                stats = self.cache.stats
                tracer.metrics.counter(
                    "plan_cache.hits" if entry is not None else
                    "plan_cache.misses"
                ).inc()
                tracer.metrics.gauge("plan_cache.hit_ratio").set(
                    stats["hit_rate"]
                )
                mirror_cache_gauges(tracer.metrics, stats)
        if entry is not None:
            return entry.plan, entry.store, True
        plan = self.planner.plan(request, capabilities, tracer=tracer)
        store = FormatStore(request.matrix)
        self.cache.insert(key, CacheEntry(plan=plan, store=store))
        return plan, store, False

    @staticmethod
    def _resolve_dense(request: SpmmRequest, store: FormatStore, *, span=None):
        """The request's dense operand, memoized in the plan-cache store.

        A seeded random operand (``dense=None``) is derived once per cache
        entry and reused by every repeat of the request — together with the
        store's memoized format/engine conversions this makes ``--repeat``
        iterations pure cache replays.
        """
        if request.dense is not None:
            return request.dense
        key = ("dense", request.dense_cols, request.seed)
        cached = store.artifacts.get(key)
        if span is not None and span.enabled:
            span.set_attribute("cached", cached is not None)
        if cached is None:
            cached = request.resolve_dense()
            store.artifacts[key] = cached
        return cached

    # ----------------------------------------------------------- execution
    def run(
        self,
        request: SpmmRequest,
        *,
        capabilities: Capabilities = FULL_CAPABILITIES,
        enforce_ladder: bool = False,
        tracer=None,
    ) -> RunOutcome:
        """Plan (or reuse a cached plan) and execute one request.

        When tracing is enabled (constructor ``tracer=`` or the per-call
        override here), the whole run sits under one ``run`` root span —
        cache lookup, planning, dense-operand resolution, and execution as
        children — and its :func:`~repro.telemetry.span_summary` lands in
        ``record.extras["trace_summary"]``.  With tracing off the record
        is bit-identical to one produced without telemetry.
        """
        tracer = self.tracer if tracer is None else tracer
        with tracer.span("run") as root:
            plan, store, cache_hit = self.plan(
                request, capabilities, tracer=tracer
            )
            if root.enabled:
                root.set_attributes(
                    algorithm=plan.algorithm,
                    cache_hit=cache_hit,
                    dense_cols=request.dense_cols,
                    gpu=self.config.name,
                )
            with tracer.span("resolve_dense") as dense_span:
                dense = self._resolve_dense(request, store, span=dense_span)
            execution = self.executor.execute(
                plan,
                request.matrix,
                dense,
                store=store,
                enforce_ladder=enforce_ladder,
                tracer=tracer,
            )
            record = RunRecord.from_execution(execution)
            writeback = getattr(self.cache, "writeback", None)
            if writeback is not None:
                # Conversions materialize lazily during execution; flush
                # them to the persistence tier (no-op without one).
                writeback(
                    PlanCache.key_for(
                        request,
                        self.config,
                        capabilities,
                        self._effective_threshold(request),
                    )
                )
        if tracer.enabled:
            record.extras["trace_summary"] = span_summary(root)
        return RunOutcome(
            record=record,
            execution=execution,
            plan=execution.plan,
            cache_hit=cache_hit,
        )

    def run_all_variants(self, request: SpmmRequest, *, tracer=None) -> dict:
        """Every Fig. 16 series for one request, sharing one format store.

        Conversions go through the same cached :class:`FormatStore` the
        planned run uses, so a later :meth:`run` on this request is a hit.
        """
        from ..kernels.hybrid import run_all_variants as _run_all

        tracer = self.tracer if tracer is None else tracer
        _, store, _ = self.plan(request, tracer=tracer)
        dense = self._resolve_dense(request, store)
        return _run_all(
            request.matrix,
            dense,
            self.config,
            tile_width=request.tile_width,
            store=store,
            tracer=tracer,
        )
