"""Container memos on the warm path: prepared operands and kernel accounting.

A plan-cache hit does only the work that depends on B: one product, no
re-canonicalization of A, no re-derived counters.  These tests pin that
down, and pin that the memos cannot leak into results, pickles or other
GPU configs.
"""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.formats import SparseMatrix
from repro.formats.base import MEMO_ATTR, container_memo
from repro.formats.convert import FormatStore
from repro.gpu import get_config
from repro.kernels import (
    b_stationary_spmm,
    canonical_csr,
    common,
    csr_spmm,
    dcsr_spmm,
    run_c_stationary_best,
)
from repro.matrices import from_spec
from repro.runtime import SpmmRequest, SpmmRuntime, invalidate_fingerprint

#: planner branch -> a small spec that plans onto it at k=16
BRANCHES = {
    "c_stationary_best": "block_diagonal:512:512:0.02:3",
    "online_tiled_dcsr": "block_diagonal:1024:1024:0.01:3",
}


def _container_classes():
    seen, todo = [], [SparseMatrix]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            seen.append(sub)
            todo.append(sub)
    return [c for c in seen if "to_coo_arrays" in vars(c)]


@pytest.fixture
def config():
    return get_config("gv100")


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_hit_computes_once_and_never_reads_triplets(branch, config, monkeypatch):
    runtime = SpmmRuntime(config)
    request = SpmmRequest(from_spec(BRANCHES[branch]), k=16, seed=1)
    cold = runtime.run(request)
    assert cold.plan.algorithm == branch

    computes, reads = [], []
    real_compute = common.compute_spmm

    def counting_compute(matrix, dense):
        computes.append(type(matrix).__name__)
        return real_compute(matrix, dense)

    monkeypatch.setattr(common, "compute_spmm", counting_compute)
    for cls in _container_classes():
        real = vars(cls)["to_coo_arrays"]

        def counting_read(self, _real=real):
            reads.append(type(self).__name__)
            return _real(self)

        monkeypatch.setattr(cls, "to_coo_arrays", counting_read)

    hit = runtime.run(request)
    assert hit.cache_hit
    assert len(computes) == 1
    assert reads == []
    assert hit.record.digest() == cold.record.digest()


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_mutating_a_hit_leaves_the_next_hit_unchanged(branch, config):
    runtime = SpmmRuntime(config)
    request = SpmmRequest(from_spec(BRANCHES[branch]), k=16, seed=1)
    expected = runtime.run(request).record.digest()

    first = runtime.run(request)
    result = first.run.result
    result.traffic.a_bytes += 1.0e9
    result.traffic.atomic_bytes += 7.0
    result.mix.fp += 12345
    result.mix.inactive += 1
    result.extras["n_kernel_launches"] = 99
    result.extras["injected"] = True

    again = runtime.run(request)
    assert again.record.digest() == expected
    assert "injected" not in again.run.result.extras


def _kernel_runs(matrix):
    """(name, container, kernel call) for each kernel on the request path."""
    store = FormatStore(matrix)
    return [
        ("csr", store.get("csr"), csr_spmm),
        ("dcsr", store.get("dcsr"), dcsr_spmm),
        ("b_stationary", store.get("tiled_dcsr"), b_stationary_spmm),
    ]


def test_same_name_configs_get_their_own_counters(config):
    """``GPUConfig.name`` alone is not a safe memo key (nor is k omitted).

    One container serves k=16, then k=64, then k=64 on a config that
    differs only in its L2 size; each result must equal the result of a
    fresh container with an empty memo.
    """
    small_l2 = dataclasses.replace(config, l2_cache_kb=16)
    assert small_l2.name == config.name
    matrix = from_spec("uniform:1024:1024:0.01:2")
    rng = np.random.default_rng(3)
    cases = [(config, 16), (config, 64), (small_l2, 64)]
    denses = {k: rng.random((matrix.n_cols, k)) for k in (16, 64)}
    for name, container, kernel in _kernel_runs(matrix):
        traffic = []
        for cfg, k in cases:
            got = kernel(container, denses[k], cfg)
            fresh = {n: c for n, c, _ in _kernel_runs(matrix)}[name]
            ref = kernel(fresh, denses[k], cfg)
            assert got.traffic == ref.traffic, (name, k)
            assert got.mix == ref.mix, (name, k)
            assert got.extras == ref.extras, (name, k)
            traffic.append(got.traffic)
        assert traffic[1] != traffic[0], name
        if name != "b_stationary":  # its B fetch does not depend on L2
            assert traffic[2] != traffic[1], name


def test_memos_never_pickle(config):
    """Spilled and shipped containers carry no memo bytes."""
    matrix = from_spec("block_diagonal:1024:1024:0.01:3")
    dense = np.random.default_rng(0).random((matrix.n_cols, 16))
    for _, container, kernel in _kernel_runs(matrix):
        before = len(pickle.dumps(container))
        kernel(container, dense, config)
        canonical_csr(container)
        assert container_memo(container)
        assert len(pickle.dumps(container)) == before
        clone = pickle.loads(pickle.dumps(container))
        assert not hasattr(clone, MEMO_ATTR)


def test_prepared_operand_is_memoized_and_invalidated(config):
    matrix = from_spec("uniform:256:256:0.02:3")
    csr = FormatStore(matrix).get("csr")
    first = canonical_csr(csr)
    assert canonical_csr(csr) is first
    # an in-place edit must be followed by invalidation, which drops it
    csr.values[0] += 1.0
    invalidate_fingerprint(csr)
    again = canonical_csr(csr)
    assert again is not first
    assert again.data[0] == pytest.approx(first.data[0] + 1.0)


def test_replaced_arrays_start_a_fresh_memo():
    matrix = from_spec("uniform:256:256:0.02:3")
    csr = FormatStore(matrix).get("csr")
    container_memo(csr)["probe"] = 1
    csr.values = csr.values[:-1]  # nnz changes with the array
    assert "probe" not in container_memo(csr)


def test_fused_results_tables_are_per_thread():
    """A table one thread installs never serves another thread's kernels."""
    matrix = from_spec("uniform:256:256:0.02:3")
    dense = np.random.default_rng(1).random((matrix.n_cols, 8))
    fake = np.full((matrix.n_rows, 8), -1.0)
    entered, done = threading.Event(), threading.Event()
    seen = {}

    def other():
        entered.wait(timeout=30)
        seen["out"] = common.prepare_spmm(matrix, dense)[2]
        done.set()

    thread = threading.Thread(target=other)
    thread.start()
    with common.fused_results([(dense, fake)]):
        assert common.prepare_spmm(matrix, dense)[2] is fake
        entered.set()
        assert done.wait(timeout=30)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not np.array_equal(seen["out"], fake)


def test_threads_sharing_one_dense_operand_get_their_own_products(config):
    """Stress: C-stationary runs in many threads, over different matrices
    but one shared B object, each get their own matrix's product (a
    process-wide result table would hand one thread's output to another).
    """
    specs = [f"uniform:256:256:0.02:{seed}" for seed in range(6)]
    matrices = [from_spec(spec) for spec in specs]
    dense = np.random.default_rng(5).random((256, 8))
    expected = [
        csr_spmm(FormatStore(m).get("csr"), dense, config).output
        for m in matrices
    ]
    wrong, errors = [], []

    def worker(i):
        try:
            store = FormatStore(matrices[i])
            for _ in range(40):
                run = run_c_stationary_best(matrices[i], dense, config, store=store)
                if not np.array_equal(run.result.output, expected[i]):
                    wrong.append(i)
        except Exception as exc:  # reported below, never swallowed
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert not wrong
