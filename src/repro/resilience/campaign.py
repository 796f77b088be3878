"""Seeded fault-injection campaigns over the online-conversion pipeline.

One campaign = one matrix, one fault seed, one engine configuration.  The
driver

1. draws a deterministic :class:`~repro.resilience.faults.FaultPlan`;
2. runs the **functional** conversion with faults injected at the engine
   boundary, detecting corruption via CRC/structural checks, recovering
   via re-reads, timeouts/retries, and unit failover;
3. runs the **timing** model per conversion unit
   (:func:`~repro.engine.queueing.simulate_fifo_resilient`) against a
   fault-free baseline, quantifying retries, deadline misses, and the
   throughput lost to ``N`` failed units;
4. verifies the SpMM output built from the (possibly corrupted) tiles
   against the dense scipy reference, so every injected corruption is
   either *detected* (a typed error was raised and recorded) or counted
   as *undetected* — never a silent wrong result;
5. chooses a degradation-ladder rung
   (:func:`~repro.kernels.hybrid.degraded_spmm`) for the surviving
   capacity and reports its modeled cost.

Reports are plain dicts of Python scalars; :meth:`CampaignReport.to_json`
is byte-reproducible for a fixed ``(matrix, config)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..engine.api import ConversionUnit, TileRequest
from ..engine.pipeline import pipeline_report
from ..engine.placement import strip_unit_failover
from ..engine.queueing import (
    RetryPolicy,
    simulate_fifo_resilient,
    sm_demand_interval_s,
)
from ..errors import (
    ConfigError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
    UnitFailedError,
)
from ..formats.convert import to_format
from ..formats.tiled import TiledDCSR, n_strips as count_strips
from ..gpu.config import GPUConfig
from ..kernels.hybrid import EngineHealth
from ..kernels.reference import random_dense_operand, scipy_spmm
from ..kernels.tiled_spmm import b_stationary_spmm
from ..telemetry import NULL_TRACER
from ..util import ceil_div, to_plain
from .faults import (
    DROPPED_RESPONSE,
    STREAM_BIT_FLIP,
    UNIT_DEAD,
    UNIT_SLOW,
    UNIT_STUCK,
    FaultPlan,
    StripFaultInjector,
    draw_fault_plan,
    stream_crc,
)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines one campaign (and hence its report)."""

    seed: int = 0
    n_units: int = 32
    kill: int = 0
    stuck: int = 0
    slow: int = 0
    slow_factor: float = 4.0
    bit_flips: int = 0
    drops: int = 0
    #: "crc" checks CRC + structure, "structural" structure only, "off"
    #: disables engine-boundary checks entirely
    integrity: str = "crc"
    tile_width: int = 64
    tile_height: int = 64
    dense_cols: int = 64
    deadline_us: float = 50.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        if self.integrity not in ("crc", "structural", "off"):
            raise ConfigError(
                f"integrity must be crc/structural/off, got {self.integrity!r}"
            )
        if self.dense_cols <= 0:
            raise ConfigError("dense_cols must be positive")
        if self.deadline_us <= 0:
            raise ConfigError("deadline_us must be positive")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_units": self.n_units,
            "kill": self.kill,
            "stuck": self.stuck,
            "slow": self.slow,
            "slow_factor": float(self.slow_factor),
            "bit_flips": self.bit_flips,
            "drops": self.drops,
            "integrity": self.integrity,
            "tile_width": self.tile_width,
            "tile_height": self.tile_height,
            "dense_cols": self.dense_cols,
            "deadline_us": float(self.deadline_us),
            "retry": self.retry.to_dict(),
        }


@dataclass
class CampaignReport:
    """The resilience report one campaign produces."""

    config: CampaignConfig
    plan: FaultPlan
    detection: dict
    recovery: dict
    timing: dict
    degradation: dict
    verification: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "faults": dict(self.plan.to_dict(), injected=self.plan.n_faults),
            "detection": self.detection,
            "recovery": self.recovery,
            "timing": self.timing,
            "degradation": self.degradation,
            "verification": self.verification,
        }

    def to_json(self) -> str:
        """Canonical (byte-reproducible) JSON rendering."""
        return json.dumps(to_plain(self.to_dict()), sort_keys=True, indent=2)


# --------------------------------------------------------- functional pass
def _convert_with_faults(csc, plan, injector, cfg):
    """Drive every strip's tile requests through fault-aware units.

    Returns ``(strips, tile_steps, assignment, events)`` where ``strips``
    is the converted (possibly corrupted) DCSR per strip, ``tile_steps``
    the per-strip list of comparator steps per tile (timing input),
    ``assignment`` the post-failover strip→unit map, and ``events`` the
    detection/recovery counters.
    """
    n_strip = count_strips(csc.n_cols, cfg.tile_width)
    units: dict[int, ConversionUnit] = {}
    events = {
        "detected": {k: 0 for k in (UNIT_DEAD, UNIT_STUCK, STREAM_BIT_FLIP, DROPPED_RESPONSE)},
        "detection_points": [],
        "undetected_flips": 0,
        "corrupted_strips": [],
        "retries": 0,
        "failovers": 0,
        "stream_rereads": 0,
    }
    unavailable = plan.unavailable_units

    def unit_for(uid: int) -> ConversionUnit:
        if uid not in units:
            units[uid] = ConversionUnit(
                uid, csc, tile_width=cfg.tile_width, injector=injector
            )
            if uid in plan.dead_units:
                units[uid].fail()
        return units[uid]

    strips = []
    tile_steps: list[list[int]] = []
    assignment: list[int] = []
    for sid in range(n_strip):
        home = sid % plan.n_units
        target = strip_unit_failover(sid, plan.n_units, unavailable)
        if home in plan.dead_units:
            # Submission to a dead unit raises immediately: detected.
            try:
                unit_for(home).submit(TileRequest(strip_id=sid, row_start=0))
            except UnitFailedError:
                events["detected"][UNIT_DEAD] += 1
                events["detection_points"].append(
                    {"strip": sid, "class": UNIT_DEAD, "unit": home,
                     "error": "UnitFailedError", "action": "failover"}
                )
            events["failovers"] += 1
        elif home in plan.stuck_units:
            # A stuck unit accepts work but never answers; the requester
            # burns its retry budget in timeouts, then fails over.
            events["retries"] += cfg.retry.max_attempts - 1
            events["detected"][UNIT_STUCK] += 1
            events["detection_points"].append(
                {"strip": sid, "class": UNIT_STUCK, "unit": home,
                 "error": "RetryExhaustedError", "action": "failover"}
            )
            events["failovers"] += 1
        assignment.append(target)
        unit = unit_for(target)

        detected_strip = False
        dropped_seen: set[int] = set()
        restart = True
        n_restarts = 0
        while restart:
            # A detected corruption invalidates every tile already cut
            # from the strip (the flip may have corrupted an earlier tile
            # without jamming it), so recovery re-reads and re-converts
            # the strip from row 0.
            restart = False
            if n_restarts > cfg.retry.max_attempts:
                raise RetryExhaustedError(
                    f"strip {sid}: still corrupt after {n_restarts} re-reads"
                )
            steps: list[int] = []
            parts = []
            row = 0
            while row < csc.n_rows or (csc.n_rows == 0 and not parts):
                attempt = 0
                while True:
                    if attempt > cfg.retry.max_attempts + 1:
                        raise RetryExhaustedError(
                            f"strip {sid} row {row}: no clean tile after "
                            f"{attempt} attempts"
                        )
                    unit.submit(
                        TileRequest(
                            strip_id=sid,
                            row_start=row,
                            tile_height=cfg.tile_height,
                            deadline_s=cfg.deadline_us * 1e-6,
                            attempt=attempt,
                        )
                    )
                    try:
                        resp = unit.process_one()
                    except (ReproError, ValueError, IndexError) as exc:
                        # Corruption detected at the engine boundary (CRC
                        # or structural check) or by the conversion
                        # jamming on an inconsistent stream.  Recovery:
                        # the fault was in-flight, so a re-read delivers
                        # clean beats.
                        if not detected_strip:
                            events["detected"][STREAM_BIT_FLIP] += injector.landed_flips.get(sid, 0) or 1
                            events["detection_points"].append(
                                {"strip": sid, "class": STREAM_BIT_FLIP,
                                 "unit": target, "error": type(exc).__name__,
                                 "action": "reread"}
                            )
                            detected_strip = True
                        injector.clear_strip(sid)
                        events["stream_rereads"] += 1
                        events["retries"] += 1
                        restart = True
                        n_restarts += 1
                        break
                    tile_index = row // max(cfg.tile_height, 1)
                    if (
                        tile_index not in dropped_seen
                        and plan.is_dropped(sid, tile_index, attempt)
                    ):
                        # Response lost in flight: timeout fires, resubmit.
                        dropped_seen.add(tile_index)
                        events["detected"][DROPPED_RESPONSE] += 1
                        events["detection_points"].append(
                            {"strip": sid, "class": DROPPED_RESPONSE,
                             "unit": target, "error": "DeadlineExceededError",
                             "action": "retry",
                             "tile": tile_index}
                        )
                        events["retries"] += 1
                        attempt += 1
                        continue
                    break
                if restart:
                    break
                steps.append(int(resp.steps))
                parts.append(resp.tile)
                row += cfg.tile_height
                if csc.n_rows == 0:
                    break

        strips.append(_assemble_strip(parts, csc.n_rows, sid, csc, cfg))
        tile_steps.append(steps)
        landed = injector.landed_flips.get(sid, 0)
        if landed and not detected_strip:
            events["undetected_flips"] += landed
            events["corrupted_strips"].append(sid)
    return strips, tile_steps, assignment, events


def _assemble_strip(parts, n_rows, sid, csc, cfg):
    """Stitch a strip's tiles back into one strip-level DCSR."""
    from ..formats.dcsr import DCSRMatrix

    start = sid * cfg.tile_width
    width = min(start + cfg.tile_width, csc.n_cols) - start
    row_idx, row_ptr, col_idx, vals = [], [0], [], []
    for t, tile in enumerate(parts):
        base = t * cfg.tile_height
        for k in range(tile.n_nonzero_rows):
            row_idx.append(int(tile.row_idx[k]) + base)
            row_ptr.append(row_ptr[-1] + int(tile.row_ptr[k + 1] - tile.row_ptr[k]))
        col_idx.extend(int(c) for c in tile.col_idx)
        vals.extend(float(v) for v in tile.values)
    dtype = csc.value_dtype
    return DCSRMatrix(
        (n_rows, width),
        np.asarray(row_idx, dtype=np.int64),
        np.asarray(row_ptr, dtype=np.int64),
        np.asarray(col_idx, dtype=np.int64),
        np.asarray(vals, dtype=dtype),
    )


# ------------------------------------------------------------- timing pass
def _simulate_timing(tile_steps, assignment, plan, cfg, config, strips):
    """Per-unit queue simulation, faulted vs. fault-free baseline."""
    rep = pipeline_report(config, n_lanes=cfg.tile_width)
    deadline = cfg.deadline_us * 1e-6
    tiles_per_strip = max(len(s) for s in tile_steps) if tile_steps else 0

    def unit_streams(strip_to_unit, with_faults):
        per_unit: dict[int, list[tuple[float, float, int, int]]] = {}
        for sid, steps in enumerate(tile_steps):
            unit = strip_to_unit[sid]
            arrival = 0.0
            for t, st in enumerate(steps):
                tile_nnz = int(strips[sid].nnz / max(len(steps), 1))
                per_unit.setdefault(unit, []).append((arrival, float(st), sid, t))
                arrival += sm_demand_interval_s(tile_nnz, cfg.dense_cols, config)
        reports = {}
        for unit, reqs in sorted(per_unit.items()):
            reqs.sort(key=lambda r: (r[0], r[2], r[3]))
            arrivals = [r[0] for r in reqs]
            steps_ = [r[1] for r in reqs]
            coords = [(r[2], r[3]) for r in reqs]
            if with_faults:
                drop = lambda i, a, c=coords: plan.is_dropped(c[i][0], c[i][1], a)
                slow = plan.slowdown(unit)
            else:
                drop, slow = None, 1.0
            reports[unit] = simulate_fifo_resilient(
                arrivals, steps_, rep,
                retry=cfg.retry, deadline_s=deadline,
                slowdown=slow, drop_attempt=drop,
            )
        return reports

    healthy_map = [sid % plan.n_units for sid in range(len(tile_steps))]
    base = unit_streams(healthy_map, with_faults=False)
    faulted = unit_streams(assignment, with_faults=True)

    def summarize(reports):
        makespan = max((r.makespan_s for r in reports.values()), default=0.0)
        waits = [
            max(0.0, q.latency_s - q.service_s * q.attempts)
            for r in reports.values()
            for q in r.requests
            if q.completed
        ]
        return {
            "makespan_s": float(makespan),
            "mean_wait_s": float(np.mean(waits)) if waits else 0.0,
            "retries": int(sum(r.retries for r in reports.values())),
            "deadline_misses": int(sum(r.deadline_misses for r in reports.values())),
            "failed_requests": int(sum(r.failed for r in reports.values())),
            "max_unit_utilization": float(
                max((r.utilization for r in reports.values()), default=0.0)
            ),
        }

    b, f = summarize(base), summarize(faulted)
    slowdown = f["makespan_s"] / b["makespan_s"] if b["makespan_s"] > 0 else 1.0
    return {
        "baseline": b,
        "faulted": f,
        "throughput_vs_healthy": float(1.0 / slowdown) if slowdown else 1.0,
        "stall_increase_s": float(max(0.0, f["mean_wait_s"] - b["mean_wait_s"])),
        "tiles_per_strip": int(tiles_per_strip),
    }


# ------------------------------------------------------------------ driver
def run_campaign(
    matrix,
    config: GPUConfig,
    campaign: CampaignConfig,
    *,
    tracer=NULL_TRACER,
) -> CampaignReport:
    """Run one seeded fault campaign; see the module docstring.

    With a real ``tracer`` the campaign is one ``campaign`` span whose
    children are the functional conversion pass, the timing pass, and the
    traced :meth:`~repro.runtime.SpmmRuntime.degraded_run`; recovery
    counters (``resilience.retries`` etc.) land in ``tracer.metrics``.
    """
    with tracer.span(
        "campaign", seed=campaign.seed, n_units=campaign.n_units
    ) as campaign_span:
        report = _run_campaign(matrix, config, campaign, tracer)
        if campaign_span.enabled:
            campaign_span.set_attributes(
                detected=report.detection["detected"],
                undetected=report.detection["undetected"],
                degraded_path=report.degradation["path"],
            )
            m = tracer.metrics
            m.counter("resilience.retries").inc(report.recovery["retries"])
            m.counter("resilience.failovers").inc(report.recovery["failovers"])
            m.counter("resilience.stream_rereads").inc(
                report.recovery["stream_rereads"]
            )
            m.counter("resilience.deadline_misses").inc(
                report.timing["faulted"]["deadline_misses"]
            )
            m.counter("resilience.failed_requests").inc(
                report.timing["faulted"]["failed_requests"]
            )
    return report


def _run_campaign(matrix, config, campaign, tracer) -> CampaignReport:
    """The campaign driver behind :func:`run_campaign`."""
    csc = to_format(matrix, "csc")
    n_strip = count_strips(csc.n_cols, campaign.tile_width)
    tiles_per_strip = ceil_div(csc.n_rows, campaign.tile_height) if csc.n_rows else 0
    strip_nnz = [
        int(csc.col_ptr[min((s + 1) * campaign.tile_width, csc.n_cols)]
            - csc.col_ptr[s * campaign.tile_width])
        for s in range(n_strip)
    ]
    plan = draw_fault_plan(
        campaign.n_units,
        n_strip,
        tiles_per_strip,
        seed=campaign.seed,
        kill=campaign.kill,
        stuck=campaign.stuck,
        slow=campaign.slow,
        slow_factor=campaign.slow_factor,
        n_bit_flips=campaign.bit_flips,
        n_drops=campaign.drops,
        strip_nnz=strip_nnz,
    )

    golden = {}
    if campaign.integrity == "crc":
        for sid in range(n_strip):
            start = sid * campaign.tile_width
            end = min(start + campaign.tile_width, csc.n_cols)
            golden[sid] = stream_crc(*csc.strip_slice(start, end))
    injector = StripFaultInjector(
        plan, golden_crc=golden, check=campaign.integrity != "off"
    )

    with tracer.span("campaign.convert", n_strips=n_strip):
        strips, tile_steps, assignment, events = _convert_with_faults(
            csc, plan, injector, campaign
        )
    tiled = TiledDCSR(csc.shape, strips, campaign.tile_width)

    # ---- numeric verification against the dense reference, under faults
    dense = random_dense_operand(csc.n_cols, campaign.dense_cols, seed=campaign.seed)
    run = b_stationary_spmm(tiled, dense, config)
    expected = scipy_spmm(matrix, dense)
    matches = bool(np.allclose(run.output, expected, atol=1e-3, rtol=1e-4))
    if not matches and events["undetected_flips"] == 0:
        raise SimulationError(
            "SpMM output diverged from the dense reference with zero "
            "undetected faults on record — the accounting is broken"
        )

    with tracer.span("campaign.timing"):
        timing = _simulate_timing(
            tile_steps, assignment, plan, campaign, config, strips
        )

    # ---- graceful degradation for the surviving capacity: re-plan with
    # constrained capabilities through the planner/executor runtime
    from ..runtime import SpmmRequest, SpmmRuntime

    n_failed = len(plan.unavailable_units)
    survivors = plan.n_units - n_failed
    slowdowns = [plan.slowdown(u) for u in range(plan.n_units)
                 if u not in plan.unavailable_units]
    health = EngineHealth(
        n_units=plan.n_units,
        n_failed=n_failed,
        mean_slowdown=float(np.mean(slowdowns)) if survivors else 1.0,
    )
    outcome = SpmmRuntime(config, tracer=tracer).degraded_run(
        SpmmRequest(matrix, dense=dense, tile_width=campaign.tile_width), health
    )
    execution = outcome.execution
    degradation = {
        "path": (
            "c_stationary"
            if execution.plan.algorithm == "c_stationary_best"
            else execution.run.name
        ),
        "reason": execution.reason,
        "engine": health.to_dict(),
        "ladder_costs_s": execution.ladder_costs_s,
        "degraded": bool(execution.degraded),
        "chosen_time_s": float(execution.run.time_s),
        "plan_algorithm": execution.plan.algorithm,
        "record_digest": outcome.record.digest(),
    }

    detected_total = int(sum(events["detected"].values()))
    detection = {
        "detected": detected_total,
        "undetected": int(events["undetected_flips"]),
        "by_class": {k: int(v) for k, v in sorted(events["detected"].items())},
        "points": events["detection_points"],
        "corrupted_strips": events["corrupted_strips"],
    }
    recovery = {
        "retries": int(events["retries"]),
        "failovers": int(events["failovers"]),
        "stream_rereads": int(events["stream_rereads"]),
        "dead_units": sorted(plan.dead_units),
        "stuck_units": sorted(plan.stuck_units),
        "slow_units": sorted(
            f.unit_id for f in plan.unit_faults if f.mode == UNIT_SLOW
        ),
    }
    verification = {
        "output_matches_reference": matches,
        "silent_wrong_result": bool(not matches and events["undetected_flips"] == 0),
        "undetected_faults": int(events["undetected_flips"]),
        "flips_landed": int(sum(injector.landed_flips.values())),
    }
    return CampaignReport(
        config=campaign,
        plan=plan,
        detection=detection,
        recovery=recovery,
        timing=timing,
        degradation=degradation,
        verification=verification,
    )
