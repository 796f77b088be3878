"""FIFO request-queue timing for the conversion units (Section 4).

"The request is queued and processed in the order of arrival, and kicks
off the conversion unit."  This module gives that sentence a timing model:
each :class:`~repro.engine.api.TileRequest` carries an arrival time and a
service demand (comparator steps × pipeline cycle), and the simulator
produces per-request waiting/completion times, queue occupancy, and unit
utilization — the quantities that decide whether SMs ever stall waiting
for tiles.

The model is an M-ish/G/1 FIFO per conversion unit (arrivals come from SM
tile-request schedules, service from the tile's structure); the bench uses
it to show the steady-state claim of Section 5.3 — the engine's service
rate exceeds the SMs' consumption rate, so queues stay near-empty — and
the overload behaviour when it would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .pipeline import PipelineReport


@dataclass(frozen=True)
class QueuedRequest:
    """One tile request with its timing annotations."""

    arrival_s: float
    service_s: float
    start_s: float
    completion_s: float

    @property
    def wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class QueueReport:
    """Aggregate timing of one unit's request stream."""

    requests: tuple
    utilization: float
    max_queue_depth: int

    @property
    def mean_wait_s(self) -> float:
        if not self.requests:
            return 0.0
        return float(np.mean([r.wait_s for r in self.requests]))

    @property
    def max_latency_s(self) -> float:
        if not self.requests:
            return 0.0
        return max(r.latency_s for r in self.requests)

    @property
    def makespan_s(self) -> float:
        if not self.requests:
            return 0.0
        return max(r.completion_s for r in self.requests)


def simulate_fifo(
    arrivals_s,
    service_steps,
    report: PipelineReport,
) -> QueueReport:
    """Run a FIFO service simulation for one conversion unit.

    ``arrivals_s`` are request arrival times (any order); ``service_steps``
    the comparator steps each request needs (same length).
    """
    arr = np.asarray(arrivals_s, dtype=np.float64)
    steps = np.asarray(service_steps, dtype=np.float64)
    if arr.size != steps.size:
        raise ConfigError("arrivals and service lengths differ")
    if arr.size and (arr.min() < 0 or steps.min() < 0):
        raise ConfigError("arrivals and steps must be non-negative")
    order = np.argsort(arr, kind="stable")
    cycle = report.cycle_time_ns * 1e-9
    service = (steps[order] + report.n_stages) * cycle

    requests = []
    free_at = 0.0
    for a, s in zip(arr[order], service):
        start = max(a, free_at)
        done = start + s
        requests.append(
            QueuedRequest(
                arrival_s=float(a),
                service_s=float(s),
                start_s=float(start),
                completion_s=float(done),
            )
        )
        free_at = done
    makespan = free_at if requests else 0.0
    busy = float(np.sum(service))
    # Max queue depth: sweep arrival/start events.
    depth = max_depth = 0
    events = sorted(
        [(r.arrival_s, 1) for r in requests]
        + [(r.start_s, -1) for r in requests],
        key=lambda e: (e[0], -e[1]),
    )
    for _, d in events:
        depth += d
        max_depth = max(max_depth, depth)
    return QueueReport(
        requests=tuple(requests),
        utilization=busy / makespan if makespan > 0 else 0.0,
        max_queue_depth=max_depth,
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff.

    Resubmission number ``a`` (1-based) waits
    ``backoff_s(a) = base_backoff_s * multiplier**(a - 1)``, and
    ``max_attempts`` counts total submissions.  The service's admission
    controller sizes its Retry-After hints with it.
    """

    max_attempts: int = 3
    base_backoff_s: float = 1e-6
    multiplier: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff_s < 0:
            raise ConfigError("base_backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1.0")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt`` (1-based)."""
        return self.base_backoff_s * self.multiplier ** max(attempt - 1, 0)


def sm_demand_interval_s(
    tile_nnz: int,
    dense_cols: int,
    config,
    *,
    warp_size: int = 32,
) -> float:
    """How long an SM takes to consume one tile — the natural request
    inter-arrival time when an SM requests its next tile on completion.

    First-order: the tile's FMA work at one SM's share of issue slots.
    """
    if tile_nnz < 0 or dense_cols <= 0:
        raise ConfigError("bad tile demand parameters")
    slots_per_sm = (
        config.cuda_cores / config.n_sms * config.clock_ghz * 1e9
    )
    executions = tile_nnz * dense_cols * 4  # fp + int + cf + overhead
    return executions / slots_per_sm
