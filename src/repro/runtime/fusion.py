"""Request coalescing: fuse same-matrix requests into one wide-k SpMM.

The paper's central economics are that the sparse-matrix stream is paid
once per *dense operand*, not once per vector — wider k amortizes the
expensive CSR/DCSR traffic (Table 1, Fig. 16).  This module realizes
that amortization across *requests*: a window of admitted requests that
share a matrix fingerprint (and format config and degradation rung) is
executed as ONE wide-k product whose columns are the members' dense
operands concatenated side by side, then split back into per-request
results.

The contract that makes this safe is **column independence**: scipy's
product computes each output column from its own B column by the same
sequential stored-order accumulation, and every container canonicalizes
to the same CSR arrays, so ``C_fused[:, lo:hi]`` is *bit-identical* to
the standalone product (property-tested in
``tests/runtime/test_fusion.py``).  Float32 operands convert to
float64 exactly, so concatenate-then-convert equals convert-then-
concatenate bitwise.  Identical dense operands (same content hash — the
operand plane's PR 7 fingerprint path) are deduplicated into a single
column range of the wide operand.

Execution happens worker-side (:func:`execute_fused_handle`): each
member request is rebuilt exactly as its solo run would be, the wide
product is computed once, and every member (plus one fused accounting
run) replays through the normal runtime under a
:class:`~repro.kernels.common.fused_results` context — validation,
accounting, timing, and record assembly all run per request, only the
arithmetic is shared.  Member records therefore keep their **unfused
digests** (``extras["coalesce"]``, the pro-rata attribution of the fused
plan's traffic/stall/activity counters, is excluded from
:meth:`~repro.runtime.record.RunRecord.digest`).

``run --batch`` and ``serve`` share the parent side: both group by
:func:`fusion_group_key` through one ``CoalescingScheduler``,
:func:`dispatch_unit` plans a window's members into one solo or fused
item, and :func:`fan_out_payload` / :func:`fan_out_failure` split its
outcome back into per-request ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .cache import CacheEntry, PlanCache, matrix_fingerprint
from .plan import SpmmRequest
from .record import RunRecord
from .supervisor import FailedItem

#: Version tag of the fused completion payload (see :func:`is_fused_payload`).
FUSED_PAYLOAD_VERSION = 1


@dataclass(frozen=True)
class FusedPlanHandle:
    """One coalesced window: a picklable bundle of member plan handles.

    ``index`` is the synthetic dispatch index the supervisor tracks the
    window under (retry/quarantine applies to the window as a unit —
    exactly one worker ever holds it); each member
    :class:`~repro.runtime.parallel.PlanHandle` keeps its own original
    index for fan-out on completion.  Members must share a matrix
    fingerprint; everything else (k, seed, explicit dense) may differ.
    """

    index: int
    handles: tuple

    def __post_init__(self):
        if len(self.handles) < 2:
            raise ConfigError("a fused handle needs at least 2 members")
        fps = {h.fingerprint for h in self.handles}
        if len(fps) != 1:
            raise ConfigError(
                f"fused members must share one matrix fingerprint, got {fps}"
            )


def is_fused_payload(payload) -> bool:
    """Whether a supervisor completion payload is a fused window result."""
    return (
        isinstance(payload, dict)
        and payload.get("fused") == FUSED_PAYLOAD_VERSION
    )


def dense_token(dense) -> str:
    """Content hash of a dense operand (dtype x shape x bytes).

    The same addressing scheme the operand plane's ``publish_dense``
    uses, so two requests whose B operands are byte-identical — whether
    or not they are the same object — share one column range of the
    fused operand.
    """
    a = np.ascontiguousarray(np.asarray(dense))
    h = hashlib.sha256()
    h.update(f"dense:{a.dtype.str}:{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _pro_rata(d: dict, share: float) -> dict:
    """Numeric fields of ``d`` scaled by ``share`` (non-numerics dropped)."""
    return {
        k: float(v) * share
        for k, v in d.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def execute_fused_handle(ctx, fused: FusedPlanHandle) -> dict:
    """Execute one coalesced window in a worker process.

    Returns the fused payload dict::

        {"fused": 1,
         "members": [[index, record_json, metrics, spans], ...],
         "meta": {...window/fused-plan facts...}}

    Steps: (1) rebuild every member request and seed the worker caches
    exactly as :func:`~repro.runtime.parallel.execute_handle` would;
    (2) resolve each member's dense operand through the same memoized
    path its solo run uses, so the fused-result table keys on the exact
    objects the kernels will receive; (3) dedupe identical operands by
    content hash and column-concatenate the remainder into the wide
    operand; (4) compute the wide product ONCE; (5) under a
    :class:`~repro.kernels.common.fused_results` context, run one fused
    accounting pass (honest traffic/stall/activity counters for the wide
    plan) and then every member request (bit-identical unfused records,
    zero extra arithmetic), attributing the fused counters pro-rata in
    each member's ``extras["coalesce"]``.
    """
    from ..kernels.common import compute_spmm, fused_results
    from ..kernels.reference import check_operands
    from .parallel import _item_tracer, _prepare_worker_item, _tracer_payload

    config, traced = ctx
    members = [
        (handle,) + _prepare_worker_item(config, handle)
        for handle in fused.handles
    ]

    # Resolve each member's dense operand via the plan-cache store memo —
    # the same object runtime.run() will hand the kernels, which is what
    # makes identity-keyed result injection sound.
    denses = []
    stores = []
    for handle, runtime, request, capabilities, _ in members:
        _, store, _ = runtime.plan(request, capabilities)
        stores.append(store)
        denses.append(runtime._resolve_dense(request, store))

    base_matrix = members[0][2].matrix

    # Content-addressed dedup: identical B shares one column range.
    spans_for: list[tuple] = []
    blocks: list[np.ndarray] = []
    by_content: dict[str, tuple] = {}
    cursor = 0
    for dense in denses:
        token = dense_token(dense)
        held = by_content.get(token)
        if held is None:
            block = check_operands(base_matrix, dense)
            held = (cursor, cursor + block.shape[1])
            by_content[token] = held
            blocks.append(block)
            cursor += block.shape[1]
        spans_for.append(held)
    dedup_hits = len(denses) - len(blocks)
    fused_k = cursor
    total_k = sum(int(d.shape[1]) for d in denses)

    wide = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    # THE single matrix-stream pass for the whole window, on the store's
    # CSR container the members' solo kernels compute on: a COO request
    # matrix with duplicate coordinates canonicalizes differently (float64
    # duplicate sums vs the conversion's float32 rounding).
    c_wide = compute_spmm(stores[0].get("csr"), wide)

    # Identity-keyed result table: the wide operand (for the fused
    # accounting run) plus each member's operand mapped to its column
    # slice.  Slices are materialized once per unique span.
    slice_for = {
        span: np.ascontiguousarray(c_wide[:, span[0]:span[1]])
        for span in set(spans_for)
    }
    pairs = [(wide, c_wide)]
    pairs += [
        (dense, slice_for[span]) for dense, span in zip(denses, spans_for)
    ]

    lead_handle, lead_runtime, lead_request, lead_caps, _ = members[0]
    fused_request = SpmmRequest(
        base_matrix,
        dense=wide,
        tile_width=lead_request.tile_width,
        ssf_threshold=lead_request.ssf_threshold,
    )
    fused_key = PlanCache.key_for(
        fused_request, lead_runtime.config, lead_caps,
        lead_runtime._effective_threshold(fused_request),
    )
    with fused_results(pairs):
        if fused_key not in lead_runtime.cache._entries:
            # Plan the wide request against the shared per-fingerprint
            # store so its kernels reuse the conversions the members
            # already materialized.
            fused_plan = lead_runtime.planner.plan(fused_request, lead_caps)
            lead_runtime.cache.insert(
                fused_key, CacheEntry(plan=fused_plan, store=stores[0])
            )
        fused_outcome = lead_runtime.run(
            fused_request, capabilities=lead_caps,
            enforce_ladder=lead_handle.capabilities is not None,
        )
        fused_record = fused_outcome.record
        fused_traffic = fused_record.traffic.to_dict()
        fused_stall = fused_record.stall.to_dict()
        fused_mix = fused_record.mix.to_dict()
        fused_facts = {
            "algorithm": fused_record.algorithm,
            "variant": fused_record.variant,
            "traffic_bytes": float(fused_record.traffic.total_bytes),
            "flops": float(fused_record.flops),
            "time_s": float(fused_record.time_s),
        }

        member_payloads = []
        for handle, runtime, request, capabilities, attach_events in members:
            tracer = _item_tracer(traced, attach_events)
            if traced:
                tracer.metrics.counter("coalesce.member_runs").inc()
            outcome = runtime.run(
                request, capabilities=capabilities,
                enforce_ladder=handle.capabilities is not None,
                tracer=tracer,
            )
            record = outcome.record
            share = request.dense_cols / total_k if total_k else 0.0
            record.extras["coalesce"] = {
                "window": len(members),
                "fused_k": int(fused_k),
                "total_k": int(total_k),
                "k": int(request.dense_cols),
                "share": float(share),
                "passes_saved": len(members) - 1,
                "dedup_hits": int(dedup_hits),
                "fused": dict(fused_facts),
                "pro_rata_traffic": _pro_rata(fused_traffic, share),
                "pro_rata_stall": _pro_rata(fused_stall, share),
                "pro_rata_mix": _pro_rata(fused_mix, share),
            }
            member_payloads.append(
                [handle.index, record.to_json(), *_tracer_payload(tracer)]
            )

    return {
        "fused": FUSED_PAYLOAD_VERSION,
        "members": member_payloads,
        "meta": {
            "members": len(members),
            "fused_k": int(fused_k),
            "total_k": int(total_k),
            "dedup_hits": int(dedup_hits),
            "dedup_k_saved": int(total_k - fused_k),
            "passes_saved": len(members) - 1,
            "fused_digest": fused_record.digest(),
            **{f"fused_{k}": v for k, v in fused_facts.items()},
        },
    }


def dispatch_unit(index: int, members, plan_handle, metrics):
    """The supervisor's ``(index, item)`` pairs for one window's members.

    Each ``(index, member)`` is planned alone by ``plan_handle(member)``
    into a :class:`~repro.runtime.parallel.PlanHandle`; one whose
    planning raises yields a ``phase="plan"``
    :class:`~repro.runtime.supervisor.FailedItem` (``attempts=1``), which
    the supervisor quarantines at once, and never poisons its window.
    One survivor dispatches solo under its own index; two or more fuse
    under ``index``.  Passes and windows are counted on ``metrics``.
    """
    handles = []
    for member_index, member in members:
        try:
            handles.append(plan_handle(member))
        except Exception as exc:
            yield member_index, FailedItem(
                index=member_index, error_type=type(exc).__name__,
                message=str(exc), attempts=1, phase="plan",
            )
    if not handles:
        return
    metrics.counter("coalesce.matrix_passes").inc()
    if len(handles) == 1:
        yield handles[0].index, handles[0]
        return
    metrics.counter("coalesce.fused_windows").inc()
    metrics.counter("coalesce.fused_requests").inc(len(handles))
    metrics.counter("coalesce.passes_saved").inc(len(handles) - 1)
    metrics.gauge("coalesce.window_occupancy").set(len(handles))
    metrics.gauge("coalesce.fused_k").set(
        sum(h.plan["dense_cols"] for h in handles)
    )
    yield index, FusedPlanHandle(index=index, handles=tuple(handles))


def fan_out_payload(index: int, payload, metrics) -> list:
    """``[(index, (record_json, metrics_snapshot, spans)), ...]``.

    A plain payload is its own completion; a fused window's fans out
    into one per member, under the member's index (its dedup hits count
    as ``coalesce.dedup_hits`` on ``metrics``).  Member records are
    digest-identical to solo runs, so callers treat them as solo items.
    """
    if not is_fused_payload(payload):
        return [(index, payload)]
    metrics.counter("coalesce.dedup_hits").inc(
        int(payload["meta"].get("dedup_hits", 0))
    )
    return [
        (member, (record_json, snapshot, spans))
        for member, record_json, snapshot, spans in payload["members"]
    ]


def fan_out_failure(failed, item) -> list:
    """One quarantined dispatch as per-request failures.

    ``item`` is what was dispatched (None: nothing was).  A fused window
    was retried as a unit, so no member half-succeeded: each gets a copy
    of the window's failure under its own index.
    """
    if not isinstance(item, FusedPlanHandle):
        return [failed]
    return [dataclasses.replace(failed, index=h.index) for h in item.handles]


def fusion_group_key(runtime, request) -> tuple:
    """The batch-side grouping key: requests fusable into one window.

    Mirrors the service's window key — matrix fingerprint and format
    config (tile width, effective SSF threshold) — so a group shares one
    plan-compatible wide pass.
    """
    return (
        matrix_fingerprint(request.matrix),
        request.tile_width,
        runtime._effective_threshold(request),
    )


def plan_fusion_groups(
    runtime, requests, indices, *, max_k: int
) -> tuple[list, list]:
    """Partition batch item indices into fusion groups and singles.

    A static batch is the service's coalescing window with every request
    already arrived: indices go, in submission order, into a
    :class:`~repro.service.coalesce.CoalescingScheduler` under their
    :func:`fusion_group_key` (so a window's summed dense width stays
    within ``max_k``), flushed at the end of input.  Returns ``(groups,
    singles)``: groups of 2+ indices ordered by first index, and the
    sorted indices of one-member windows.
    """
    # Imported here: the service package imports this one.
    from ..service.coalesce import CoalescingScheduler

    scheduler = CoalescingScheduler(window_s=math.inf, max_k=max_k)
    windows: list = []
    for i in indices:
        windows += scheduler.add(
            fusion_group_key(runtime, requests[i]), i,
            requests[i].dense_cols, 0.0,
        )
    windows += scheduler.pop_ready(0.0, flush_all=True)
    groups = sorted((m for _, m in windows if len(m) > 1), key=lambda m: m[0])
    singles = sorted(m[0] for _, m in windows if len(m) == 1)
    return groups, singles


__all__ = [
    "FUSED_PAYLOAD_VERSION",
    "FusedPlanHandle",
    "dense_token",
    "dispatch_unit",
    "execute_fused_handle",
    "fan_out_failure",
    "fan_out_payload",
    "fusion_group_key",
    "is_fused_payload",
    "plan_fusion_groups",
]
