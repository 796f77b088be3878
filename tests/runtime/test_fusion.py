"""The coalescing plane's core contract: fused == unfused, bit for bit.

Three layers of evidence, bottom up:

* **kernel property** (hypothesis): column-concatenated SpMM equals
  per-operand SpMM byte-for-byte at every k-split point — the
  column-independence fact the whole plane rests on;
* **worker contract**: :func:`execute_fused_handle` returns member
  records whose digests equal both solo :func:`execute_handle` payloads
  and bare serial runs, with honest pro-rata ``extras["coalesce"]``;
* **batch semantics**: ``run_batch(coalesce=True)`` is digest-identical
  to serial, fused windows retry/quarantine as a unit (chaos-injected
  worker kill), and grouping respects the ``max_k`` bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu import GV100
from repro.kernels.common import compute_spmm, fused_results, prepare_spmm
from repro.kernels.reference import check_operands
from repro.matrices import uniform_random
from repro.runtime import (
    FusedPlanHandle,
    ParallelExecutor,
    PlanHandle,
    SpmmRequest,
    SpmmRuntime,
    is_fused_payload,
    matrix_fingerprint,
    plan_fusion_groups,
)
from repro.runtime.fusion import dense_token, execute_fused_handle
from repro.runtime.parallel import execute_handle
from repro.runtime.record import RunRecord
from repro.runtime.supervisor import ChaosFault, SupervisionPolicy


# ------------------------------------------------------- kernel property
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    widths=st.lists(st.integers(1, 7), min_size=2, max_size=4),
)
def test_concat_spmm_bit_identity(seed, widths):
    """C[:, lo:hi] of the wide product equals the standalone product,
    for every split layout hypothesis picks.
    """
    rng = np.random.default_rng(seed)
    m = uniform_random(37, 29, 0.12, seed=seed)
    blocks = [
        rng.standard_normal((29, w)).astype(
            np.float32 if (seed + i) % 2 else np.float64
        )
        for i, w in enumerate(widths)
    ]
    wide = np.concatenate(
        [check_operands(m, b) for b in blocks], axis=1
    )
    c_wide = compute_spmm(m, wide)
    lo = 0
    for b in blocks:
        solo = compute_spmm(m, check_operands(m, b))
        hi = lo + b.shape[1]
        assert c_wide[:, lo:hi].tobytes() == solo.tobytes()
        lo = hi


def test_fused_results_provider_injects_and_restores():
    """prepare_spmm returns the registered result for the exact operand
    object (identity-keyed), and falls back to computing once the
    context exits.
    """
    m = uniform_random(20, 16, 0.2, seed=1)
    dense = np.ones((16, 3))
    real = compute_spmm(m, check_operands(m, dense))
    fake = np.full_like(real, 7.0)
    with fused_results([(dense, fake)]):
        _, _, out = prepare_spmm(m, dense)
        assert out is fake
        # a different-but-equal array misses: keying is by identity
        _, _, other = prepare_spmm(m, dense.copy())
        assert np.array_equal(other, real)
    _, _, after = prepare_spmm(m, dense)
    assert np.array_equal(after, real)


def test_dense_token_is_content_addressed():
    a = np.arange(12.0).reshape(4, 3)
    assert dense_token(a) == dense_token(a.copy())
    assert dense_token(a) != dense_token(a.astype(np.float32))
    assert dense_token(a) != dense_token(a.reshape(3, 4))


# ----------------------------------------------------- worker-side fusion
def _handles(runtime, requests):
    fp = matrix_fingerprint(requests[0].matrix)
    out = []
    for i, r in enumerate(requests):
        plan, _, _ = runtime.plan(r)
        out.append(
            PlanHandle(
                index=i,
                plan=plan.to_dict(),
                matrix=r.matrix,
                fingerprint=fp,
                k=r.k,
                seed=r.seed,
                tile_width=r.tile_width,
                ssf_threshold=r.ssf_threshold,
            )
        )
    return out


def test_fused_handle_matches_solo_and_serial():
    """The worker contract: fused member records are digest-identical
    to solo worker payloads and to bare serial runs, and identical
    operands dedup into one column range.
    """
    m = uniform_random(90, 70, 0.08, seed=5)
    runtime = SpmmRuntime(GV100)
    requests = [SpmmRequest(m, k=6, seed=s) for s in (1, 2, 2, 3)]
    serial = [runtime.run(r).record.digest() for r in requests]
    handles = _handles(runtime, requests)
    solo = [
        RunRecord.from_json(
            execute_handle((GV100, False), h)[0]
        ).digest()
        for h in handles
    ]
    payload = execute_fused_handle(
        (GV100, False), FusedPlanHandle(index=99, handles=tuple(handles))
    )
    assert is_fused_payload(payload)
    meta = payload["meta"]
    assert meta["members"] == 4
    assert meta["dedup_hits"] == 1  # seed 2 published twice
    assert meta["fused_k"] == 18 and meta["total_k"] == 24
    assert meta["passes_saved"] == 3
    shares = []
    for (index, record_json, _, _), want in zip(
        payload["members"], serial
    ):
        record = RunRecord.from_json(record_json)
        assert record.digest() == want == solo[index]
        co = record.extras["coalesce"]
        assert co["window"] == 4 and co["fused_k"] == 18
        assert co["pro_rata_traffic"]
        shares.append(co["share"])
    assert sum(shares) == pytest.approx(1.0)


def test_fused_handle_rejects_bad_windows():
    m = uniform_random(30, 30, 0.1, seed=1)
    runtime = SpmmRuntime(GV100)
    (h,) = _handles(runtime, [SpmmRequest(m, k=4)])
    with pytest.raises(ConfigError, match="at least 2"):
        FusedPlanHandle(index=0, handles=(h,))
    other = _handles(
        SpmmRuntime(GV100), [SpmmRequest(uniform_random(31, 30, 0.1, seed=2), k=4)]
    )[0]
    with pytest.raises(ConfigError, match="fingerprint"):
        FusedPlanHandle(index=0, handles=(h, other))


# ------------------------------------------------------- grouping policy
class TestPlanFusionGroups:
    def test_groups_by_matrix_and_respects_max_k(self):
        a = uniform_random(40, 32, 0.1, seed=1)
        b = uniform_random(40, 32, 0.1, seed=2)
        runtime = SpmmRuntime(GV100)
        requests = [
            SpmmRequest(a, k=8),   # 0 ┐ window (k=16)
            SpmmRequest(b, k=8),   # 1 — alone on b -> single
            SpmmRequest(a, k=8),   # 2 ┘
            SpmmRequest(a, k=8),   # 3 ┐ overflow chunk
            SpmmRequest(a, k=8),   # 4 ┘
        ]
        groups, singles = plan_fusion_groups(
            runtime, requests, range(5), max_k=16
        )
        assert groups == [[0, 2], [3, 4]]
        assert singles == [1]

    def test_unfusable_tail_stays_single(self):
        a = uniform_random(40, 32, 0.1, seed=1)
        runtime = SpmmRuntime(GV100)
        requests = [SpmmRequest(a, k=8), SpmmRequest(a, k=8),
                    SpmmRequest(a, k=8)]
        groups, singles = plan_fusion_groups(
            runtime, requests, range(3), max_k=16
        )
        assert groups == [[0, 1]] and singles == [2]

    def test_different_tile_widths_do_not_fuse(self):
        a = uniform_random(40, 32, 0.1, seed=1)
        runtime = SpmmRuntime(GV100)
        requests = [
            SpmmRequest(a, k=8, tile_width=64),
            SpmmRequest(a, k=8, tile_width=32),
        ]
        groups, singles = plan_fusion_groups(
            runtime, requests, range(2), max_k=64
        )
        assert groups == [] and singles == [0, 1]

    def test_max_k_validation(self):
        with pytest.raises(ConfigError, match="max_k"):
            plan_fusion_groups(SpmmRuntime(GV100), [], [], max_k=0)


# ------------------------------------------------------- batch semantics
def _batch_requests():
    a = uniform_random(80, 64, 0.06, seed=7)
    b = uniform_random(72, 48, 0.08, seed=8)
    return (
        [SpmmRequest(a, k=8, seed=s % 2) for s in range(4)]
        + [SpmmRequest(b, k=8, seed=0)]
    )


def test_batch_coalesce_matches_serial():
    requests = _batch_requests()
    serial = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
        requests
    )
    fused = ParallelExecutor(SpmmRuntime(GV100), workers=2).run_batch(
        requests, coalesce=True
    )
    assert fused.ok
    for s, f in zip(serial, fused):
        assert f.record.digest() == s.record.digest()
        assert f.index == s.index
    windows = [r.record.extras.get("coalesce") for r in fused]
    assert [w["window"] if w else None for w in windows] == [4, 4, 4, 4, None]
    # seeds 0,1,0,1 -> two unique operands out of four members
    assert windows[0]["dedup_hits"] == 2


def test_batch_fused_chaos_kill_retries_window():
    """A worker SIGKILLed mid-fused-window: the window retries as a unit
    and every member still lands with its unfused digest.
    """
    requests = _batch_requests()
    serial = ParallelExecutor(SpmmRuntime(GV100), workers=1).run_batch(
        requests
    )
    # synthetic fused indexes start at len(requests); the single window
    # (4 same-matrix items) dispatches as index 5 after single index 4
    executor = ParallelExecutor(SpmmRuntime(GV100), workers=2)
    result = executor.run_batch(
        requests,
        coalesce=True,
        policy=SupervisionPolicy(backoff_base_s=0.01, max_retries=2),
        chaos={len(requests): ChaosFault("kill")},
    )
    assert result.ok, result.failures
    assert result.stats["retries"] >= 1
    for s, f in zip(serial, result):
        assert f.record.digest() == s.record.digest()


def test_batch_fused_chaos_quarantine_fans_out_to_members_only():
    """A window that keeps failing quarantines exactly its members —
    the unrelated single item still completes.
    """
    requests = _batch_requests()
    executor = ParallelExecutor(SpmmRuntime(GV100), workers=2)
    result = executor.run_batch(
        requests,
        coalesce=True,
        policy=SupervisionPolicy(backoff_base_s=0.01, max_retries=1),
        chaos={len(requests): ChaosFault("raise", attempts=None)},
    )
    assert not result.ok
    assert sorted(f.index for f in result.failures) == [0, 1, 2, 3]
    assert all(result[i] is None for i in range(4))
    assert result[4] is not None  # the other matrix was untouched
