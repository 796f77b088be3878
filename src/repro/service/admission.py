"""Admission control: bounded queues, tenant quotas, deadline demotion.

An overloaded service has exactly three honest options per request:
run it now, run it later (bounded queue), or refuse it with a truthful
retry hint.  This module makes that decision *before* any work happens,
using the same queueing theory the engine model is built on
(:mod:`repro.engine.queueing`): the service tracks an EWMA of request
service time and arrival rate, estimates utilization ``rho = lambda *
s_mean / workers``, and sizes its pending window so the expected queueing
delay stays near ``target_wait_s`` — exactly the linear wait growth the
``rho > 1`` overload tests pin down, inverted into a control knob.

Three mechanisms, applied in order:

1. **Per-tenant token buckets** — a tenant submitting faster than its
   refill rate is shed with 429 before it can starve anyone else; its
   ``Retry-After`` is the token refill time, floored by the
   :class:`~repro.engine.queueing.RetryPolicy` exponential backoff of its
   consecutive sheds (a persistent over-submitter is pushed back harder
   each time).
2. **Windowed backpressure** — total queued work is capped at the
   dynamic window; the ``batch`` lane is additionally capped at
   ``batch_share`` of it, so bulk traffic can never occupy the room
   interactive requests need.  Sheds quote the estimated drain time.
3. **Deadline demotion** — a request with a deadline the current backlog
   cannot honor is *demoted down the degradation ladder* (online ->
   offline-tiled -> CSR) rather than refused: a cheaper plan now beats a
   perfect plan after the deadline.

Everything here is synchronous, deterministic given the observation
stream, and independent of asyncio — the server calls it, the tests
drive it directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..engine.queueing import RetryPolicy
from ..errors import ConfigError

#: Ladder rung count (0 = full capability; see ``server.LADDER``).
N_RUNGS = 3


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller; immutable, picklable."""

    #: absolute cap on queued-but-undispatched requests (window ceiling)
    max_pending: int = 64
    #: queueing-delay budget that sizes the dynamic window
    target_wait_s: float = 2.0
    #: fraction of the window the batch lane may occupy
    batch_share: float = 0.5
    #: per-tenant sustained admission rate (requests/second)
    tenant_rate: float = 50.0
    #: per-tenant burst allowance (token-bucket capacity)
    tenant_burst: int = 16
    #: EWMA smoothing for service-time and arrival-rate estimates
    ewma_alpha: float = 0.2
    #: backoff schedule behind Retry-After for repeat offenders
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=8, base_backoff_s=0.05)
    )

    def __post_init__(self):
        if self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if self.target_wait_s <= 0:
            raise ConfigError("target_wait_s must be positive")
        if not 0.0 < self.batch_share <= 1.0:
            raise ConfigError("batch_share must be in (0, 1]")
        if self.tenant_rate <= 0:
            raise ConfigError("tenant_rate must be positive")
        if self.tenant_burst < 1:
            raise ConfigError("tenant_burst must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one submit."""

    admitted: bool
    #: refusal class when shed: "quota" or "backpressure"
    reason: str = ""
    #: truthful earliest-useful-retry hint (shed responses only)
    retry_after_s: float = 0.0


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: int, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at = now

    def try_take(self, now: float) -> float:
        """Take one token; returns 0.0 on success, else seconds until one.

        Refill is computed lazily from elapsed time, so an idle tenant
        pays nothing and a bucket never needs a timer.
        """
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionController:
    """Decides, per request: admit, shed with Retry-After, or demote.

    Feed it observations (:meth:`observe_completion` with each request's
    wall service time; arrivals are observed inside :meth:`admit`) and it
    maintains the utilization estimate everything else derives from.
    Decisions (:meth:`admit`, :meth:`choose_rung`) run on the server's
    event loop only; :meth:`observe_completion` arrives from the
    dispatcher thread, but folds into a single float under the GIL, so
    the worst race is one slightly stale EWMA read — never corruption.
    """

    def __init__(self, config: AdmissionConfig, *, workers: int):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.config = config
        self.workers = int(workers)
        #: EWMA of request wall service time (None until first completion)
        self.service_time_s: float | None = None
        #: EWMA of the arrival rate, requests/second (None until 2nd arrival)
        self.arrival_rate: float | None = None
        self._last_arrival: float | None = None
        self._buckets: dict[str, TokenBucket] = {}
        self._consecutive_sheds: dict[str, int] = {}
        #: lifetime decision counters, surfaced in health/stats payloads
        self.counters = {"admitted": 0, "shed_quota": 0,
                         "shed_backpressure": 0, "demoted": 0}

    # -------------------------------------------------------- observations
    def observe_completion(self, service_s: float) -> None:
        """Fold one completed request's wall time into the EWMA."""
        a = self.config.ewma_alpha
        if self.service_time_s is None:
            self.service_time_s = float(service_s)
        else:
            self.service_time_s += a * (service_s - self.service_time_s)

    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            gap = max(now - self._last_arrival, 1e-6)
            rate = 1.0 / gap
            a = self.config.ewma_alpha
            if self.arrival_rate is None:
                self.arrival_rate = rate
            else:
                self.arrival_rate += a * (rate - self.arrival_rate)
        self._last_arrival = now

    # ---------------------------------------------------------- estimates
    def utilization(self) -> float:
        """Estimated ``rho = lambda * s_mean / workers`` (0 until known)."""
        if self.service_time_s is None or self.arrival_rate is None:
            return 0.0
        return self.arrival_rate * self.service_time_s / self.workers

    def window(self) -> int:
        """Pending-queue bound: the depth whose drain time is the target.

        ``target_wait_s / (s_mean / workers)`` queued requests drain in
        roughly the wait budget; before any completion is observed the
        window opens to the ceiling (no evidence of slowness yet).
        """
        cfg = self.config
        if self.service_time_s is None or self.service_time_s <= 0:
            return cfg.max_pending
        depth = math.ceil(cfg.target_wait_s * self.workers / self.service_time_s)
        return max(self.workers, min(cfg.max_pending, depth))

    def drain_estimate_s(self, queued: int) -> float:
        """Expected time for ``queued`` requests to clear the pool."""
        if self.service_time_s is None:
            return 0.0
        return queued * self.service_time_s / self.workers

    # ----------------------------------------------------------- decisions
    def admit(
        self, tenant: str, lane: str, *, queued_total: int,
        queued_batch: int, now: float | None = None,
    ) -> AdmissionDecision:
        """Admission verdict for one submit already past validation.

        ``queued_total`` / ``queued_batch`` are the current lane depths
        (queued, not yet dispatched).  Order matters: quota is checked
        before backpressure so a flooding tenant is charged against *its*
        bucket even when the queue is also full.
        """
        now = time.monotonic() if now is None else now
        self._observe_arrival(now)
        cfg = self.config
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                cfg.tenant_rate, cfg.tenant_burst, now
            )
        token_wait = bucket.try_take(now)
        if token_wait > 0.0:
            return self._shed(tenant, "quota", token_wait)
        window = self.window()
        if lane == "batch" and queued_batch >= max(
            1, int(window * cfg.batch_share)
        ):
            return self._shed(
                tenant, "backpressure", self.drain_estimate_s(queued_batch)
            )
        if queued_total >= window:
            return self._shed(
                tenant, "backpressure",
                self.drain_estimate_s(queued_total - window + 1),
            )
        self._consecutive_sheds[tenant] = 0
        self.counters["admitted"] += 1
        return AdmissionDecision(admitted=True)

    def _shed(self, tenant, reason, base_wait_s) -> AdmissionDecision:
        """Refuse with a Retry-After floored by per-tenant backoff."""
        sheds = self._consecutive_sheds.get(tenant, 0) + 1
        self._consecutive_sheds[tenant] = sheds
        self.counters[f"shed_{reason}"] += 1
        retry = self.config.retry
        backoff = retry.backoff_s(min(sheds, retry.max_attempts))
        return AdmissionDecision(
            admitted=False,
            reason=reason,
            retry_after_s=max(float(base_wait_s), backoff),
        )

    def choose_rung(self, deadline_s: float | None, *, backlog: int) -> int:
        """Ladder rung for a deadline given the current backlog.

        Estimated completion = queueing delay of ``backlog`` requests plus
        one service time.  Comfortably inside the deadline runs at full
        capability; within 2x runs offline-tiled (rung 1, skips the
        online-engine conversion); beyond that drops to CSR (rung 2, no
        conversion at all).  The request is *never* refused for its
        deadline — a demoted answer beats none (the ladder contract,
        ``docs/RELIABILITY.md``).
        """
        if deadline_s is None or self.service_time_s is None:
            return 0
        estimate = self.drain_estimate_s(backlog) + self.service_time_s
        if estimate <= deadline_s:
            return 0
        self.counters["demoted"] += 1
        return 1 if estimate <= 2.0 * deadline_s else N_RUNGS - 1

    # ------------------------------------------------------------- report
    def snapshot(self) -> dict:
        """Plain-JSON controller state for health/stats responses."""
        return {
            "utilization": float(self.utilization()),
            "window": int(self.window()),
            "service_time_s": self.service_time_s,
            "arrival_rate": self.arrival_rate,
            "counters": dict(self.counters),
            "tenants": {
                t: {
                    "tokens": round(b.tokens, 3),
                    "consecutive_sheds": self._consecutive_sheds.get(t, 0),
                }
                for t, b in sorted(self._buckets.items())
            },
        }
