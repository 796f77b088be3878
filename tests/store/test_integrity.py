"""Integrity plane: checksums, corruption detection, quarantine, republish.

The acceptance property (docs/RELIABILITY.md): operand bytes damaged
between publish/spill and attach/reload are *detected* — a structured
:class:`OperandCorruptionError`, never a silently wrong result — and
*recovered*: segments republish from the owner's source copy, persisted
entries quarantine and re-derive, and the recovered run's record digest
is bit-identical to an uncorrupted run's.
"""

import errno
import os

import numpy as np
import pytest

from repro.errors import OperandCorruptionError
from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.resilience import flip_byte, truncate_file
from repro.resilience.injectors import corrupt_segment
from repro.runtime import PlanCache, SpmmRequest, SpmmRuntime, matrix_fingerprint
from repro.store import (
    PersistentFormatStore,
    SharedOperandRegistry,
    array_crc32,
    attach_matrix,
    detach_all,
    verify_arrays,
)
from repro.store.layout import ArraySpec, pack_specs


@pytest.fixture
def registry(tmp_path):
    reg = SharedOperandRegistry(lease_dir=str(tmp_path / "leases"))
    yield reg
    detach_all()
    reg.close()


def matrix(seed=2):
    return uniform_random(16, 16, 0.25, seed=seed)


# ------------------------------------------------------------------ layout
class TestChecksums:
    def test_array_crc32_is_content_deterministic(self):
        a = np.arange(64, dtype=np.float64)
        assert array_crc32(a) == array_crc32(a.copy())
        b = a.copy()
        b[3] += 1.0
        assert array_crc32(a) != array_crc32(b)

    def test_crc_ignores_layout_not_content(self):
        a = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert array_crc32(a) == array_crc32(np.asfortranarray(a))

    def test_pack_specs_stamps_every_array(self):
        specs, _ = pack_specs(
            {"x": np.arange(5, dtype=np.int32), "y": np.ones(3)}
        )
        assert all(s.crc32 is not None for s in specs)

    def test_verify_arrays_names_the_damaged_array(self):
        arrays = {"x": np.arange(5, dtype=np.int32), "y": np.ones(3)}
        specs, _ = pack_specs(arrays)
        assert verify_arrays(arrays, specs) == []
        arrays["y"] = np.zeros(3)
        assert verify_arrays(arrays, specs) == ["y"]

    def test_unstamped_specs_attach_unverified(self):
        # Pre-checksum descriptors (crc32=None) must stay attachable.
        arrays = {"x": np.arange(5, dtype=np.int32)}
        specs, _ = pack_specs(arrays)
        legacy = tuple(
            ArraySpec(s.name, s.dtype, s.shape, s.offset, s.nbytes)
            for s in specs
        )
        arrays["x"] = np.zeros(5, dtype=np.int32)
        assert verify_arrays(arrays, legacy) == []


# ---------------------------------------------------------------- registry
class TestSegmentIntegrity:
    def test_attach_detects_corruption_structured(self, registry):
        m = matrix()
        fp = matrix_fingerprint(m)
        d = registry.publish_matrix(m, fingerprint=fp)
        corrupt_segment(d.segment, d.arrays[0].offset)
        with pytest.raises(OperandCorruptionError) as exc_info:
            attach_matrix(d)
        err = exc_info.value
        assert err.token == fp
        assert err.segment == d.segment
        assert err.arrays  # names the damaged array(s)
        assert err.plane == "registry"

    def test_owner_side_verify_segment(self, registry):
        m = matrix()
        fp = matrix_fingerprint(m)
        d = registry.publish_matrix(m, fingerprint=fp)
        assert registry.verify_segment(fp) == []
        assert registry.verify_all() == {}
        corrupt_segment(d.segment, d.arrays[-1].offset)
        assert registry.verify_segment(fp) != []
        assert fp in registry.verify_all()
        assert registry.stats["corruption_detected"] >= 1

    def test_republish_fresh_name_attach_succeeds(self, registry):
        m = matrix()
        fp = matrix_fingerprint(m)
        d = registry.publish_matrix(m, fingerprint=fp)
        corrupt_segment(d.segment, d.arrays[0].offset)
        with pytest.raises(OperandCorruptionError):
            attach_matrix(d)
        fresh = registry.republish(fp)
        assert fresh is not None
        assert fresh.segment != d.segment  # memo-busting fresh name
        assert registry.stats["republished"] == 1
        rebuilt, _ = attach_matrix(fresh)
        np.testing.assert_array_equal(rebuilt.values, m.values)

    def test_republish_unknown_token_returns_none(self, registry):
        assert registry.republish("nope") is None

    def test_shm_exhaustion_degrades_to_pickle_fallback(
        self, registry, monkeypatch, capsys
    ):
        from multiprocessing import shared_memory

        def exhausted(*a, **kw):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", exhausted)
        m = matrix()
        assert registry.publish_matrix(m, fingerprint=matrix_fingerprint(m)) is None
        assert registry.stats["publish_failures"] == 1
        assert registry.pressure.is_degraded("registry")
        assert "registry plane degraded" in capsys.readouterr().err


class TestSweepHardening:
    def test_lease_vanishing_mid_scan_is_tolerated(self, registry, tmp_path):
        # Regression for the publish-vs-sweep race: a lease removed
        # between listdir and open (owner released, or a concurrent
        # sweeper won) must be skipped, never raised.
        import json

        lease_dir = registry.lease_dir
        path = os.path.join(lease_dir, "phantom.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"segment": "phantom", "pid": 1}, fh)

        real_listdir = os.listdir

        def listdir_then_vanish(p):
            names = real_listdir(p)
            if p == lease_dir and os.path.exists(path):
                os.unlink(path)  # vanish after the scan snapshot
            return names

        import repro.store.registry as reg_mod

        original = reg_mod.os.listdir
        reg_mod.os.listdir = listdir_then_vanish
        try:
            assert registry.sweep_orphans() == 0  # no raise
        finally:
            reg_mod.os.listdir = original

    def test_sweep_never_reclaims_live_publishers_segment(self, registry):
        # A live publisher's lease carries our pid; a concurrent sweep
        # must leave the segment attachable.
        m = matrix()
        fp = matrix_fingerprint(m)
        d = registry.publish_matrix(m, fingerprint=fp)
        other = SharedOperandRegistry(lease_dir=registry.lease_dir)
        assert other.sweep_orphans() == 0
        rebuilt, _ = attach_matrix(d)
        np.testing.assert_array_equal(rebuilt.values, m.values)


# ----------------------------------------------------------------- persist
def _store_runtime(root):
    return SpmmRuntime(
        GV100, cache=PlanCache(persist=PersistentFormatStore(root))
    )


def _request(seed=0, n=32):
    return SpmmRequest(uniform_random(n, n, 0.1, seed=seed), k=8, seed=0)


def _spilled_npys(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(
            os.path.join(dirpath, f) for f in files if f.endswith(".npy")
        )
    return sorted(out)


class TestPersistIntegrity:
    def test_bit_rot_detected_quarantined_rederived(self, tmp_path):
        root = str(tmp_path / "store")
        clean = _store_runtime(root).run(_request())
        npys = _spilled_npys(root)
        assert npys
        for path in npys:
            flip_byte(path, offset=os.path.getsize(path) - 1)
        # The warm start must detect, quarantine, and silently re-derive —
        # never return wrong bytes, never crash.
        fresh = _store_runtime(root)
        recovered = fresh.run(_request())
        assert recovered.record.digest() == clean.record.digest()
        store = fresh.cache.persist
        assert store.stats["corrupt_dropped"] >= 1

    def test_torn_write_detected_as_corruption(self, tmp_path):
        root = str(tmp_path / "store")
        clean = _store_runtime(root).run(_request())
        victim = _spilled_npys(root)[0]
        truncate_file(victim)
        fresh = _store_runtime(root)
        recovered = fresh.run(_request())
        assert recovered.record.digest() == clean.record.digest()

    def test_verify_manifest_reports_and_repairs(self, tmp_path):
        root = str(tmp_path / "store")
        _store_runtime(root).run(_request())
        store = PersistentFormatStore(root)
        report = store.verify_manifest()
        assert report["files"] > 0
        assert report["corrupt"] == [] and report["missing"] == []
        victim = _spilled_npys(root)[0]
        flip_byte(victim)
        report = store.verify_manifest(repair=True)
        assert report["corrupt"]
        assert report["repaired"] is True
        # Post-repair the manifest no longer references the bad file.
        assert store.verify_manifest()["corrupt"] == []

    def test_missing_spill_file_classified_missing(self, tmp_path):
        root = str(tmp_path / "store")
        _store_runtime(root).run(_request())
        os.unlink(_spilled_npys(root)[0])
        report = PersistentFormatStore(root).verify_manifest()
        assert report["missing"]


class TestVerifyOverhead:
    def test_warmstart_checksum_tax_under_5_percent(self):
        from repro.bench import bench_store_warmstart

        result = bench_store_warmstart(True)
        meta = result["meta"]
        assert "verify_overhead" in meta
        assert meta["verify_overhead"] < 0.05
