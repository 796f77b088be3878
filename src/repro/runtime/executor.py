"""The execution half of the runtime: :class:`SpmmPlan` → kernels → result.

The executor owns no policy.  It materializes the formats a plan names
(through a memoizing :class:`~repro.formats.convert.FormatStore`, so cache
hits reuse conversions), dispatches to the simulated kernels,
and — when asked to enforce the degradation ladder — demotes an online
plan whose conversion the degraded engine can no longer hide by asking the
planner to re-plan with online ruled out (Section 5.3 made failure-aware).

Every entry point takes ``tracer=NULL_TRACER``: with a real tracer the
dispatch runs inside an ``execute`` span whose children are the format
conversions, engine pipeline, and ``kernel:*`` spans of the path taken
(see ``docs/OBSERVABILITY.md``); with the default null tracer nothing is
recorded and results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..formats.convert import FormatStore
from ..gpu.config import GPUConfig
from ..telemetry import NULL_TRACER
from .plan import SpmmPlan

#: reasons reported for each ladder outcome (kept stable for reports/tests)
REASON_SSF_BELOW = "SSF below threshold — engine path not selected"
REASON_OFFLINE_FALLBACK = (
    "engine capacity insufficient — offline tiled DCSR fallback"
)
REASON_BOTTOM_RUNG = "engine unavailable and no offline copy — untiled CSR"


@dataclass
class ExecutionResult:
    """One executed plan: the variant run plus the ladder bookkeeping."""

    #: the :class:`~repro.kernels.hybrid.VariantRun` that was executed
    run: object
    #: the plan actually executed (demotion may differ from requested)
    plan: SpmmPlan
    #: the plan the caller asked for
    requested_plan: SpmmPlan
    #: modeled cost of every ladder rung considered, seconds
    ladder_costs_s: dict = field(default_factory=dict)
    degraded: bool = False
    reason: str = ""


class Executor:
    """Executes plans on the simulated GPU; pairs with a :class:`Planner`."""

    def __init__(self, config: GPUConfig, planner=None):
        self.config = config
        self.planner = planner

    # ------------------------------------------------------------- dispatch
    def execute(
        self,
        plan: SpmmPlan,
        matrix,
        dense: np.ndarray,
        *,
        store: FormatStore | None = None,
        request=None,
        enforce_ladder: bool = False,
        tracer=NULL_TRACER,
    ) -> ExecutionResult:
        """Run ``plan`` over ``(matrix, dense)``.

        ``enforce_ladder`` turns on the degradation discipline: the online
        rung is kept only while the (possibly degraded) engine still hides
        conversion under the kernel, otherwise execution re-plans with
        constrained capabilities and walks down.  ``request`` is needed for
        that re-planning step.
        """
        with tracer.span("execute", algorithm=plan.algorithm) as span:
            result = self._dispatch(
                plan,
                matrix,
                dense,
                store=store,
                request=request,
                enforce_ladder=enforce_ladder,
                tracer=tracer,
            )
            if span.enabled:
                run = result.run
                span.set_attributes(
                    variant=run.name,
                    time_s=float(run.time_s),
                    memory_bound=bool(run.timing.memory_bound),
                    degraded=result.degraded,
                )
                stall = run.timing.stall_breakdown()
                span.set_attribute("stall", stall.to_dict())
                tracer.metrics.histogram("kernel.time_s").observe(
                    float(run.time_s)
                )
        return result

    def _dispatch(
        self,
        plan: SpmmPlan,
        matrix,
        dense: np.ndarray,
        *,
        store: FormatStore | None,
        request,
        enforce_ladder: bool,
        tracer,
    ) -> ExecutionResult:
        """The per-algorithm dispatch behind :meth:`execute`."""
        from ..kernels.hybrid import (
            run_c_stationary_best,
            run_offline_tiled,
            run_online_tiled,
        )

        if store is None:
            store = FormatStore(matrix)
        ladder: dict[str, float] = {}

        if plan.algorithm == "c_stationary_best":
            run = run_c_stationary_best(
                matrix, dense, self.config, store=store, tracer=tracer
            )
            result = ExecutionResult(
                run=run,
                plan=plan,
                requested_plan=plan,
                ladder_costs_s=ladder,
                degraded=False,
                reason=REASON_SSF_BELOW if enforce_ladder else "",
            )
        elif plan.algorithm == "online_tiled_dcsr":
            run = run_online_tiled(
                matrix,
                dense,
                self.config,
                tile_width=plan.tile_width,
                store=store,
                tracer=tracer,
            )
            capacity = plan.capabilities.engine_capacity
            if enforce_ladder:
                conv_s = run.result.extras["conversion"]["conversion_time_s"]
                degraded_conv_s = conv_s / capacity
                # Conversion the surviving units cannot hide is exposed time.
                ladder["online_tiled_dcsr"] = run.time_s + max(
                    0.0, degraded_conv_s - run.time_s
                )
                if tracer.enabled:
                    tracer.metrics.gauge("engine.capacity").set(capacity)
                    tracer.metrics.gauge("engine.exposed_conversion_s").set(
                        max(0.0, degraded_conv_s - run.time_s)
                    )
                if degraded_conv_s > run.time_s:
                    return self._demote(
                        plan, matrix, dense, store, request, ladder,
                        tracer=tracer,
                    )
                reason = f"conversion still hidden at {capacity:.2f} capacity"
            else:
                reason = ""
            result = ExecutionResult(
                run=run,
                plan=plan,
                requested_plan=plan,
                ladder_costs_s=ladder,
                degraded=False,
                reason=reason,
            )
        elif plan.algorithm == "offline_tiled_dcsr":
            run = run_offline_tiled(
                matrix,
                dense,
                self.config,
                tile_width=plan.tile_width,
                store=store,
                tracer=tracer,
            )
            if enforce_ladder:
                ladder["offline_tiled_dcsr"] = run.time_s
            result = ExecutionResult(
                run=run,
                plan=plan,
                requested_plan=plan,
                ladder_costs_s=ladder,
                degraded=bool(plan.provenance.get("degraded")),
                reason=REASON_OFFLINE_FALLBACK if enforce_ladder else "",
            )
        elif plan.algorithm == "untiled_csr":
            run = self._run_untiled_csr(matrix, dense, store, tracer=tracer)
            if enforce_ladder:
                ladder["untiled_csr"] = run.time_s
            result = ExecutionResult(
                run=run,
                plan=plan,
                requested_plan=plan,
                ladder_costs_s=ladder,
                degraded=bool(plan.provenance.get("degraded")),
                reason=REASON_BOTTOM_RUNG if enforce_ladder else "",
            )
        else:  # pragma: no cover — SpmmPlan validates algorithm
            raise ConfigError(f"unknown plan algorithm {plan.algorithm!r}")

        self._stamp_provenance(result)
        return result

    # ------------------------------------------------------------ demotion
    def _demote(
        self, plan, matrix, dense, store, request, ladder, *, tracer=NULL_TRACER
    ) -> ExecutionResult:
        """Online conversion no longer hidden: re-plan one rung down."""
        if self.planner is None or request is None:
            raise ConfigError(
                "ladder demotion needs a planner and the original request"
            )
        with tracer.span("demote", from_algorithm=plan.algorithm) as span:
            demoted_plan = self.planner.plan(
                request, plan.capabilities.without_online(), tracer=tracer
            )
            if span.enabled:
                span.set_attribute("to_algorithm", demoted_plan.algorithm)
                tracer.metrics.counter("ladder.demotions").inc()
            result = self.execute(
                demoted_plan,
                matrix,
                dense,
                store=store,
                request=request,
                enforce_ladder=True,
                tracer=tracer,
            )
        # The online rung was considered first; keep its modeled cost.
        merged = dict(ladder)
        merged.update(result.ladder_costs_s)
        result.ladder_costs_s = merged
        result.requested_plan = plan
        result.degraded = True
        return result

    def _run_untiled_csr(
        self,
        matrix,
        dense,
        store: FormatStore,
        *,
        tracer=NULL_TRACER,
    ):
        """The ladder's bottom rung: plain CSR C-stationary."""
        from ..gpu.timing import time_kernel
        from ..kernels.csr_spmm import csr_spmm
        from ..kernels.hybrid import VariantRun

        result = csr_spmm(
            store.get("csr", tracer=tracer), dense, self.config, tracer=tracer
        )
        return VariantRun("untiled_csr", result, time_kernel(result, self.config))

    @staticmethod
    def _stamp_provenance(result: ExecutionResult) -> None:
        """Record the planner's evidence on the executed run's extras."""
        prov = result.plan.provenance
        if "ssf" in prov:
            result.run.result.extras["ssf"] = prov["ssf"]
            result.run.result.extras["ssf_threshold"] = prov["ssf_threshold"]
