"""The execution half of the runtime: :class:`SpmmPlan` → kernels → result.

The executor owns no policy.  It materializes the formats a plan names
(through a memoizing :class:`~repro.formats.convert.FormatStore`, so cache
hits reuse conversions) and dispatches to the simulated kernels.  The
planner picks the degradation-ladder rung from the request's
:class:`~repro.runtime.plan.Capabilities`; when asked to enforce the
ladder, the executor records why that rung ran and what it cost.

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
    #: the plan that was executed
    plan: SpmmPlan
    #: modeled cost of the fallback rung that ran, seconds
    ladder_costs_s: dict = field(default_factory=dict)
    degraded: bool = False
    reason: str = ""


#: the reason each rung reports when the ladder is enforced
_LADDER_REASONS = {
    "c_stationary_best": REASON_SSF_BELOW,
    "offline_tiled_dcsr": REASON_OFFLINE_FALLBACK,
    "untiled_csr": REASON_BOTTOM_RUNG,
}


class Executor:
    """Executes plans on the simulated GPU; pairs with a :class:`Planner`."""

    def __init__(self, config: GPUConfig):
        self.config = config

    # ------------------------------------------------------------- dispatch
    def execute(
        self,
        plan: SpmmPlan,
        matrix,
        dense: np.ndarray,
        *,
        store: FormatStore | None = None,
        enforce_ladder: bool = False,
        tracer=NULL_TRACER,
    ) -> ExecutionResult:
        """Run ``plan`` over ``(matrix, dense)``.

        ``enforce_ladder`` marks a run on a demoted service rung: the
        result carries the rung's reason, and a fallback rung its modeled
        cost in ``ladder_costs_s``.
        """
        with tracer.span("execute", algorithm=plan.algorithm) as span:
            result = self._dispatch(
                plan,
                matrix,
                dense,
                store=store,
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
        if plan.algorithm == "c_stationary_best":
            run = run_c_stationary_best(
                matrix, dense, self.config, store=store, tracer=tracer
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
        elif plan.algorithm == "offline_tiled_dcsr":
            run = run_offline_tiled(
                matrix,
                dense,
                self.config,
                tile_width=plan.tile_width,
                store=store,
                tracer=tracer,
            )
        elif plan.algorithm == "untiled_csr":
            run = self._run_untiled_csr(matrix, dense, store, tracer=tracer)
        else:  # pragma: no cover — SpmmPlan validates algorithm
            raise ConfigError(f"unknown plan algorithm {plan.algorithm!r}")

        ladder: dict[str, float] = {}
        reason = ""
        if enforce_ladder:
            reason = _LADDER_REASONS.get(plan.algorithm, "")
            if plan.algorithm in ("offline_tiled_dcsr", "untiled_csr"):
                ladder[plan.algorithm] = run.time_s
        result = ExecutionResult(
            run=run,
            plan=plan,
            ladder_costs_s=ladder,
            degraded=bool(plan.provenance.get("degraded")),
            reason=reason,
        )
        self._stamp_provenance(result)
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
