"""The planning half of the runtime: SSF decision → :class:`SpmmPlan`.

The planner never touches the dense operand or runs a kernel.  It profiles
the sparse matrix (Eq. 2's SSF), predicts the Table 1 compulsory traffic
for each stationarity, applies the learned threshold, and honors the
capability constraints the caller is operating under (degradation is the
same ``plan`` call with a constrained :class:`Capabilities`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.ssf import ssf as ssf_value
from ..analysis.traffic import traffic_comparison
from ..errors import ConfigError
from ..formats.tiled import n_strips as count_strips
from ..gpu.config import GPUConfig
from ..gpu.memory import strip_partition_naive
from ..telemetry import NULL_TRACER
from .plan import Capabilities, FULL_CAPABILITIES, SpmmPlan, SpmmRequest

#: bump when planning semantics change — recorded in every plan's provenance
PLANNER_VERSION = 1


@dataclass
class Planner:
    """SSF-routed format/stationarity selection (Section 5.2)."""

    config: GPUConfig
    ssf_threshold: float | None = None

    def __post_init__(self):
        if self.ssf_threshold is None:
            from ..kernels.hybrid import SSF_TH_DEFAULT

            self.ssf_threshold = SSF_TH_DEFAULT
        if self.ssf_threshold < 0:
            raise ConfigError("ssf_threshold must be non-negative")

    def plan(
        self,
        request: SpmmRequest,
        capabilities: Capabilities = FULL_CAPABILITIES,
        *,
        tracer=NULL_TRACER,
    ) -> SpmmPlan:
        """Decide the execution path for one request under ``capabilities``.

        With a real ``tracer`` the decision is recorded as a ``plan`` span
        with ``plan.ssf`` / ``plan.traffic_model`` children and the chosen
        algorithm, SSF value, and threshold as attributes.
        """
        with tracer.span("plan") as span:
            plan = self._decide(request, capabilities, tracer)
            if span.enabled:
                span.set_attributes(
                    algorithm=plan.algorithm,
                    ssf=plan.provenance["ssf"],
                    ssf_threshold=plan.provenance["ssf_threshold"],
                    degraded=plan.provenance["degraded"],
                )
        return plan

    def _decide(
        self, request: SpmmRequest, capabilities: Capabilities, tracer
    ) -> SpmmPlan:
        """The planning logic behind :meth:`plan`."""
        threshold = (
            request.ssf_threshold
            if request.ssf_threshold is not None
            else self.ssf_threshold
        )
        matrix = request.matrix
        with tracer.span("plan.ssf"):
            s = ssf_value(matrix, request.tile_width)
        with tracer.span("plan.traffic_model"):
            predicted = {
                name: {
                    "a_bytes": est.a_bytes,
                    "b_bytes": est.b_bytes,
                    "c_bytes": est.c_bytes,
                    "total_bytes": est.total_bytes,
                }
                for name, est in traffic_comparison(
                    matrix,
                    dense_cols=request.dense_cols,
                    tile=request.tile_width,
                ).items()
            }
        provenance = {
            "planner_version": PLANNER_VERSION,
            # scipy computes every product; the key stays so records keep
            # their bytes (RunRecord.digest excludes it)
            "backend": "scipy",
            "ssf": float(s),
            "ssf_threshold": float(threshold),
            "predicted_traffic": predicted,
            "matrix_shape": [int(matrix.n_rows), int(matrix.n_cols)],
            "matrix_nnz": int(matrix.nnz),
            "degraded": False,
        }
        common = dict(
            tile_width=request.tile_width,
            dense_cols=request.dense_cols,
            gpu=self.config.name,
            capabilities=capabilities,
        )

        if s <= threshold:
            # C-stationary territory: race untiled CSR against untiled DCSR
            # (the paper plots their max; the executor reports the winner).
            return SpmmPlan(
                algorithm="c_stationary_best",
                a_format="csr|dcsr",
                stationarity="c",
                candidates=("csr", "dcsr"),
                provenance=provenance,
                **common,
            )

        # B-stationary territory: walk the degradation ladder top-down.
        if capabilities.online_usable:
            placement = tuple(
                strip_partition_naive(sid, self.config.mem_channels)
                for sid in range(count_strips(matrix.n_cols, request.tile_width))
            )
            return SpmmPlan(
                algorithm="online_tiled_dcsr",
                a_format="csc",
                stationarity="b",
                engine_placement=placement,
                provenance=provenance,
                **common,
            )
        provenance["degraded"] = True
        if capabilities.offline_tiled_available:
            return SpmmPlan(
                algorithm="offline_tiled_dcsr",
                a_format="tiled_dcsr",
                stationarity="b",
                provenance=provenance,
                **common,
            )
        return SpmmPlan(
            algorithm="untiled_csr",
            a_format="csr",
            stationarity="c",
            provenance=provenance,
            **common,
        )
