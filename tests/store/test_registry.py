"""Shared operand registry: publish/attach lifecycle and orphan sweep."""

import json
import os

import numpy as np
import pytest

from repro.matrices import uniform_random
from repro.runtime import matrix_fingerprint
from repro.store import (
    SharedOperandRegistry,
    attach_dense,
    attach_matrix,
    detach_all,
    pickled_nbytes,
)
from repro.store.layout import dense_token


@pytest.fixture
def registry(tmp_path):
    reg = SharedOperandRegistry(lease_dir=str(tmp_path / "leases"))
    yield reg
    detach_all()
    reg.close()


def matrix():
    return uniform_random(16, 16, 0.25, seed=2)


def test_publish_once_repeat_is_refcount_hit(registry):
    m = matrix()
    fp = matrix_fingerprint(m)
    d1 = registry.publish_matrix(m, fingerprint=fp)
    d2 = registry.publish_matrix(m, fingerprint=fp)
    assert d1 is d2
    assert registry.stats["segments_created"] == 1
    assert registry.stats["publish_hits"] == 1
    assert registry.stats["bytes_shipped"] == d1.total_bytes


def test_attach_reconstructs_matrix_zero_copy(registry):
    m = matrix()
    d = registry.publish_matrix(m, fingerprint=matrix_fingerprint(m))
    attached, fresh = attach_matrix(d)
    assert fresh is True
    assert attached.shape == m.shape and attached.nnz == m.nnz
    r0, c0, v0 = m.to_coo_arrays()
    r1, c1, v1 = attached.to_coo_arrays()
    np.testing.assert_array_equal(np.asarray(v1), np.asarray(v0))
    # Second attach in the same process is a memo hit.
    again, fresh = attach_matrix(d)
    assert fresh is False and again is attached


def test_publish_dense_content_addressed(registry):
    b = np.random.default_rng(0).standard_normal((16, 8))
    d1 = registry.publish_dense(b)
    d2 = registry.publish_dense(b.copy())  # same bytes, same token
    assert d1 is d2
    # One content hash: coalescing dedups by the token the registry uses,
    # and a byte-swapped copy of the same values hashes the same.
    assert d1.token == dense_token(b) == dense_token(b.astype(">f8"))
    arr, fresh = attach_dense(d1)
    assert fresh is True
    np.testing.assert_array_equal(arr, b)


def test_close_force_unlinks_and_clears_leases(registry):
    m = matrix()
    d = registry.publish_matrix(m, fingerprint=matrix_fingerprint(m))
    lease = os.path.join(registry.lease_dir, f"{d.segment}.json")
    assert os.path.exists(lease)
    registry.close()
    assert not os.path.exists(lease)
    assert registry.descriptors == {}


def test_unadapted_matrix_returns_none_for_pickle_fallback(registry):
    class Exotic:
        format_name = "exotic"
        shape = (2, 2)

    assert registry.publish_matrix(Exotic(), fingerprint="x") is None
    assert pickled_nbytes({"some": "payload"}) > 0


def test_sweep_orphans_reclaims_dead_pid_leases(registry):
    m = matrix()
    d = registry.publish_matrix(m, fingerprint=matrix_fingerprint(m))
    # Forge the lease as belonging to a dead process, then drop our
    # bookkeeping (without unlinking) to simulate a crash.
    lease = os.path.join(registry.lease_dir, f"{d.segment}.json")
    with open(lease, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["pid"] = 2**22 + 1  # beyond default pid_max: never alive
    with open(lease, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    shm, _ = registry._segments.pop(d.token)
    shm.close()

    sweeper = SharedOperandRegistry(lease_dir=registry.lease_dir)
    assert sweeper.sweep_orphans() == 1
    assert sweeper.stats["orphans_swept"] == 1
    assert not os.path.exists(lease)


def test_sweep_skips_live_pids(registry):
    m = matrix()
    registry.publish_matrix(m, fingerprint=matrix_fingerprint(m))
    sweeper = SharedOperandRegistry(lease_dir=registry.lease_dir)
    assert sweeper.sweep_orphans() == 0  # our pid is alive
    assert len(registry.descriptors) == 1


def test_dense_dedup_hits_counter(registry):
    """Byte-identical B published content-addressed by different callers
    shares one segment and is counted as a dedup hit; explicit-token
    republish stays a plain publish hit.
    """
    b = np.random.default_rng(1).standard_normal((16, 4))
    first = registry.publish_dense(b)
    again = registry.publish_dense(b.copy())  # another tenant, same bytes
    assert again is first
    assert registry.stats["dense_dedup_hits"] == 1
    assert registry.stats["publish_hits"] == 1
    assert registry.stats["segments_created"] == 1
    registry.publish_dense(b, token="explicit")
    registry.publish_dense(b, token="explicit")
    assert registry.stats["publish_hits"] == 2
    assert registry.stats["dense_dedup_hits"] == 1  # unchanged
