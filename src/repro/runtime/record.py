"""Serializable run records: plan + counters + timing + stall breakdown.

A :class:`RunRecord` is the durable trace of one executed plan — everything
a dashboard, regression harness, or postmortem needs, as plain JSON.  The
dense output itself is summarized by shape/dtype/SHA-256 (records must stay
small and comparable); byte-identical records imply byte-identical outputs.

Records are deterministic for a fixed ``(matrix, dense, config, plan)``:
the canonical JSON of a plan-cache hit is bit-identical to the cold run's,
which the property tests pin down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..gpu.counters import InstructionMix, StallBreakdown, TrafficCounters
from ..gpu.timing import TimingResult
from ..util import canonical_json, to_plain

RECORD_VERSION = 1


def output_summary(output) -> dict:
    """Shape/dtype/SHA-256 digest of a kernel's dense output."""
    a = np.ascontiguousarray(np.asarray(output))
    return {
        "shape": [int(s) for s in a.shape],
        "dtype": str(a.dtype),
        "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
    }


@dataclass
class RunRecord:
    """One executed SpMM run, fully serializable."""

    plan: dict
    #: executed variant name, e.g. "online_tiled_dcsr" or "dcsr"
    variant: str
    #: kernel algorithm tag, e.g. "tiled_dcsr_b_stationary"
    algorithm: str
    traffic: TrafficCounters
    mix: InstructionMix
    flops: float
    timing: TimingResult
    stall: StallBreakdown
    output: dict
    extras: dict = field(default_factory=dict)
    #: modeled cost of each degradation rung considered (seconds)
    ladder_costs_s: dict = field(default_factory=dict)
    degraded: bool = False
    reason: str = ""
    version: int = RECORD_VERSION

    @classmethod
    def from_execution(cls, execution) -> "RunRecord":
        """Build a record from an :class:`~repro.runtime.executor.ExecutionResult`."""
        run = execution.run
        return cls(
            plan=execution.plan.to_dict(),
            variant=run.name,
            algorithm=run.result.algorithm,
            traffic=run.result.traffic,
            mix=run.result.mix,
            flops=float(run.result.flops),
            timing=run.timing,
            stall=run.timing.stall_breakdown(),
            output=output_summary(run.result.output),
            extras=to_plain(run.result.extras),
            ladder_costs_s={k: float(v) for k, v in execution.ladder_costs_s.items()},
            degraded=bool(execution.degraded),
            reason=execution.reason,
        )

    @property
    def time_s(self) -> float:
        """Total modeled execution time in seconds."""
        return self.timing.total_s

    def to_dict(self) -> dict:
        """Plain-JSON form, inverse of :meth:`from_dict`."""
        return {
            "version": int(self.version),
            "plan": self.plan,
            "variant": self.variant,
            "algorithm": self.algorithm,
            "traffic": self.traffic.to_dict(),
            "mix": self.mix.to_dict(),
            "flops": float(self.flops),
            "timing": self.timing.to_dict(),
            "stall": self.stall.to_dict(),
            "output": self.output,
            "extras": to_plain(self.extras),
            "ladder_costs_s": {k: float(v) for k, v in self.ladder_costs_s.items()},
            "degraded": bool(self.degraded),
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Rebuild from the :meth:`to_dict` form."""
        return cls(
            plan=dict(d["plan"]),
            variant=d["variant"],
            algorithm=d["algorithm"],
            traffic=TrafficCounters.from_dict(d["traffic"]),
            mix=InstructionMix.from_dict(d["mix"]),
            flops=float(d["flops"]),
            timing=TimingResult.from_dict(d["timing"]),
            stall=StallBreakdown.from_dict(d["stall"]),
            output=dict(d["output"]),
            extras=dict(d.get("extras", {})),
            ladder_costs_s=dict(d.get("ladder_costs_s", {})),
            degraded=bool(d.get("degraded", False)),
            reason=d.get("reason", ""),
            version=int(d.get("version", RECORD_VERSION)),
        )

    def to_json(self) -> str:
        """Canonical (byte-reproducible) JSON rendering."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the record's identity.

        Three exclusions keep identity tied to *what ran*, not *how*:

        * ``extras["trace_summary"]`` (wall-clock telemetry, see
          :mod:`repro.telemetry`) — the same run traced and untraced has
          the same identity;
        * ``extras["coalesce"]`` (pro-rata accounting attributed by the
          request-coalescing plane, see :mod:`repro.runtime.fusion`) — a
          request served out of a fused wide-k window is bit-identical to
          its unfused run by contract, so it must digest the same;
        * ``plan.provenance["backend"]`` — records from before scipy
          became the only arithmetic may name numpy or numba there with
          the same output and counters, so they (and the journals that
          pin them) keep verifying.  The plan dict is copied before
          stripping: ``to_dict`` shares ``self.plan`` with the record.
        """
        d = self.to_dict()
        d["extras"].pop("trace_summary", None)
        d["extras"].pop("coalesce", None)
        plan = dict(d["plan"])
        if "backend" in plan.get("provenance", {}):
            plan["provenance"] = {
                k: v for k, v in plan["provenance"].items() if k != "backend"
            }
        d["plan"] = plan
        return hashlib.sha256(canonical_json(d).encode()).hexdigest()
