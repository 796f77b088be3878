"""Requests, capabilities, and plans — the planner/executor contract.

The paper's system is a *decision* (SSF picks B- vs C-stationary, Eq. 2 /
Fig. 16) followed by an *execution* (CSR/DCSR kernels, online engine
conversion).  :class:`SpmmPlan` is that decision made explicit: which
algorithm runs, in which storage format, with which tiling and engine
placement, plus the provenance that justified it (the SSF value, the
threshold it was compared against, and the Table 1 traffic the planner
predicted for each stationarity).  Plans are plain data — JSON-serializable
and independent of the matrix object — so run records can carry them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError
from ..util import canonical_json

#: The variant names a plan can select (the Fig. 16 series plus the
#: bottom degradation rung).
PLAN_ALGORITHMS = (
    "c_stationary_best",
    "online_tiled_dcsr",
    "offline_tiled_dcsr",
    "untiled_csr",
)


@dataclass
class SpmmRequest:
    """One SpMM problem as submitted to the runtime.

    Either pass an explicit ``dense`` operand or let ``k``/``seed`` describe
    the seeded random operand to materialize (the benchmark/CLI path — the
    request stays cheap to hash and replay).
    """

    matrix: object
    dense: np.ndarray | None = None
    k: int | None = None
    seed: int = 0
    tile_width: int = 64
    #: None → use the planner's threshold
    ssf_threshold: float | None = None

    def __post_init__(self):
        # Invalid requests fail here, before they can join (and poison)
        # a fused window or reach a worker.
        if self.dense is None and (self.k is None or self.k < 1):
            raise ConfigError(f"SpmmRequest needs dense or k >= 1, got k={self.k}")
        if self.dense is not None and (
            np.ndim(self.dense) != 2 or len(self.dense) != self.matrix.n_cols
        ):
            raise ConfigError(
                f"dense operand must be 2-D with {self.matrix.n_cols} rows "
                f"(the matrix's columns), got shape {np.shape(self.dense)}"
            )
        if self.tile_width <= 0:
            raise ConfigError("tile_width must be positive")
        if self.ssf_threshold is not None and self.ssf_threshold < 0:
            raise ConfigError("ssf_threshold must be non-negative")

    @property
    def dense_cols(self) -> int:
        """Width of the dense operand, from the explicit array or ``k``."""
        return int(self.dense.shape[1]) if self.dense is not None else int(self.k)

    def resolve_dense(self) -> np.ndarray:
        """The dense operand: the explicit one, or the seeded random one."""
        if self.dense is not None:
            return self.dense
        from ..kernels.reference import random_dense_operand

        return random_dense_operand(self.matrix.n_cols, int(self.k), seed=self.seed)


@dataclass(frozen=True)
class Capabilities:
    """What the execution substrate can still do — the planner's constraint.

    Degradation is *re-planning with constrained capabilities*: the
    resilience layer maps surviving engine capacity onto this record and
    asks the planner again, instead of patching the executed path ad hoc.
    """

    #: surviving conversion-engine throughput, fraction of design (0..1)
    engine_capacity: float = 1.0
    #: a pre-converted offline tiled-DCSR copy exists to fall back on
    offline_tiled_available: bool = True
    #: the online engine path may be chosen at all
    online_allowed: bool = True

    def __post_init__(self):
        if not 0.0 <= self.engine_capacity <= 1.0:
            raise ConfigError("engine_capacity must be in [0, 1]")

    @classmethod
    def from_health(cls, health, *, offline_available: bool = True) -> "Capabilities":
        """Constrain capabilities by an :class:`~repro.kernels.hybrid.EngineHealth`."""
        return cls(
            engine_capacity=float(health.capacity),
            offline_tiled_available=bool(offline_available),
        )

    def without_online(self) -> "Capabilities":
        """The next rung down: online conversion ruled out."""
        return replace(self, online_allowed=False)

    @property
    def online_usable(self) -> bool:
        """Whether the online engine path is both allowed and alive."""
        return self.online_allowed and self.engine_capacity > 0.0

    def to_dict(self) -> dict:
        """Plain-JSON form, inverse of :meth:`from_dict`."""
        return {
            "engine_capacity": float(self.engine_capacity),
            "offline_tiled_available": bool(self.offline_tiled_available),
            "online_allowed": bool(self.online_allowed),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Capabilities":
        """Rebuild from the :meth:`to_dict` form."""
        return cls(
            engine_capacity=float(d["engine_capacity"]),
            offline_tiled_available=bool(d["offline_tiled_available"]),
            online_allowed=bool(d["online_allowed"]),
        )

    def cache_key(self) -> tuple:
        """Hashable identity used in :class:`~repro.runtime.cache.PlanCache` keys."""
        return (
            round(float(self.engine_capacity), 12),
            self.offline_tiled_available,
            self.online_allowed,
        )


FULL_CAPABILITIES = Capabilities()


@dataclass(frozen=True)
class SpmmPlan:
    """One planning decision, ready to execute (and to serialize).

    ``provenance`` carries the evidence: the SSF value and threshold and
    the predicted Table 1 traffic per stationarity.
    """

    algorithm: str
    #: A's storage format(s) the executor will materialize
    a_format: str
    #: "b" or "c" — which operand stays stationary (Section 3.1)
    stationarity: str
    tile_width: int
    dense_cols: int
    gpu: str
    #: strip index → FB-partition/engine id (online plans only)
    engine_placement: tuple[int, ...] = ()
    #: candidate kernels the executor races (c_stationary_best only)
    candidates: tuple[str, ...] = ()
    capabilities: Capabilities = FULL_CAPABILITIES
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in PLAN_ALGORITHMS:
            raise ConfigError(
                f"unknown plan algorithm {self.algorithm!r}; "
                f"expected one of {PLAN_ALGORITHMS}"
            )
        if self.stationarity not in ("b", "c"):
            raise ConfigError("stationarity must be 'b' or 'c'")

    @property
    def uses_engine(self) -> bool:
        """Whether executing this plan drives the near-memory engine."""
        return self.algorithm == "online_tiled_dcsr"

    def to_dict(self) -> dict:
        """Plain-JSON form, inverse of :meth:`from_dict`."""
        return {
            "algorithm": self.algorithm,
            "a_format": self.a_format,
            "stationarity": self.stationarity,
            "tile_width": int(self.tile_width),
            "dense_cols": int(self.dense_cols),
            "gpu": self.gpu,
            "engine_placement": [int(p) for p in self.engine_placement],
            "candidates": list(self.candidates),
            "capabilities": self.capabilities.to_dict(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpmmPlan":
        """Rebuild from the :meth:`to_dict` form."""
        return cls(
            algorithm=d["algorithm"],
            a_format=d["a_format"],
            stationarity=d["stationarity"],
            tile_width=int(d["tile_width"]),
            dense_cols=int(d["dense_cols"]),
            gpu=d["gpu"],
            engine_placement=tuple(int(p) for p in d.get("engine_placement", ())),
            candidates=tuple(d.get("candidates", ())),
            capabilities=Capabilities.from_dict(d["capabilities"]),
            provenance=dict(d.get("provenance", {})),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, fixed float formatting)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SpmmPlan":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
