"""Persistent format store: spill, warm-start reload, disk-full, manifest."""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.resilience import failing_fsync
from repro.runtime import FULL_CAPABILITIES, PlanCache, SpmmRequest, SpmmRuntime
from repro.store import MANIFEST_VERSION, PersistentFormatStore
from repro.telemetry import Tracer


def runtime(root):
    return SpmmRuntime(GV100, cache=PlanCache(persist=PersistentFormatStore(root)))


def request(seed=0, n=32):
    return SpmmRequest(uniform_random(n, n, 0.1, seed=seed), k=8, seed=0)


def test_run_spills_and_manifest_is_versioned(tmp_path):
    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request())
    assert rt.cache.spills >= 1
    with open(os.path.join(root, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["version"] == MANIFEST_VERSION
    assert len(manifest["entries"]) == 1
    assert len(manifest["matrices"]) == 1


def test_manifest_keeps_the_plain_file_mode(tmp_path):
    """The manifest is as readable as a plainly created file, not 0600."""
    root = str(tmp_path / "store")
    runtime(root).run(request())
    plain = tmp_path / "plain"
    plain.write_text("")
    mode = os.stat(os.path.join(root, "manifest.json")).st_mode & 0o777
    assert mode == plain.stat().st_mode & 0o777


def test_warm_start_zero_conversions_digest_identical(tmp_path):
    root = str(tmp_path / "store")
    cold = runtime(root).run(request())

    fresh = runtime(root)  # new process stand-in: nothing in RAM
    tracer = Tracer()
    warm = fresh.run(request(), tracer=tracer)
    assert warm.record.digest() == cold.record.digest()
    assert fresh.cache.stats["disk_hits"] == 1
    converts = [
        s
        for s in tracer.iter_spans()
        if s.name.startswith(("convert:", "engine.convert"))
    ]
    assert converts, "expected conversion spans in the trace"
    assert all(s.attributes.get("cached") for s in converts)


def test_disk_hit_promotes_to_ram_when_room(tmp_path):
    root = str(tmp_path / "store")
    runtime(root).run(request())
    manifest = tmp_path / "store" / "manifest.json"
    before = manifest.read_bytes()
    fresh = runtime(root)
    fresh.run(request())
    assert fresh.cache.stats["disk_hits"] == 1
    assert manifest.read_bytes() == before  # recency stays in memory
    fresh.run(request())  # second run: pure RAM hit
    assert fresh.cache.stats["disk_hits"] == 1
    assert fresh.cache.stats["hits"] == 2


def test_missing_key_is_a_miss(tmp_path):
    store = PersistentFormatStore(str(tmp_path / "store"))
    assert store.get(("nope", 1)) is None
    assert store.stats["misses"] == 1
    assert ("nope", 1) not in store
    assert len(store) == 0


def test_unknown_manifest_version_treated_as_empty(tmp_path):
    root = str(tmp_path / "store")
    runtime(root).run(request())
    manifest = os.path.join(root, "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["version"] = MANIFEST_VERSION + 999
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert len(PersistentFormatStore(root)) == 0


def test_corrupt_manifest_treated_as_empty(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write("{truncated")
    assert len(PersistentFormatStore(root)) == 0


@settings(max_examples=60)
@given(raw=st.one_of(
    st.binary(max_size=200),
    st.sampled_from([b"[]", b'"manifest"', b"2", b"null", b'{"version": 2}']),
))
@example(raw=b"\xff\xfe")
@example(raw=b"[" * 100_000)
@example(raw=b'{"version": 2, "seq": 0, "matrices": [], "entries": {}}')
def test_manifest_never_raises_on_content(raw):
    """Anything that is not a well-formed manifest loads as empty."""
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "manifest.json"), "wb") as fh:
            fh.write(raw)
        store = PersistentFormatStore(root)
        assert len(store) == 0 and store.fingerprints() == []


def test_incremental_put_is_idempotent(tmp_path):
    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request())
    spills = rt.cache.spills
    rt.run(request())  # RAM hit, writeback finds nothing new
    assert rt.cache.spills == spills


@pytest.mark.parametrize("seeds", [(0, 1)])
def test_entries_share_one_persisted_matrix(tmp_path, seeds):
    """Two k-widths over one matrix persist the base arrays once."""
    root = str(tmp_path / "store")
    rt = runtime(root)
    m = uniform_random(32, 32, 0.1, seed=9)
    rt.run(SpmmRequest(m, k=4, seed=0))
    rt.run(SpmmRequest(m, k=16, seed=0))
    store = PersistentFormatStore(root)
    assert len(store) == 2
    assert len(store.fingerprints()) == 1


def test_disk_full_spill_degrades_and_evicts_least_recently_used(tmp_path):
    """A failed spill flips the store read-only and evicts by recency.

    A is spilled before B, but a disk hit on A makes B the entry used
    least recently, so B is the one handed back to the disk.
    """
    root = str(tmp_path / "store")
    writer = runtime(root)
    writer.run(request(seed=0))  # A
    writer.run(request(seed=1))  # B
    threshold = writer.planner.ssf_threshold
    key_a, key_b, key_c = (
        PlanCache.key_for(request(seed=seed), GV100, FULL_CAPABILITIES, threshold)
        for seed in range(3)
    )
    ram = SpmmRuntime(GV100)  # builds C's entry without touching the store
    ram.run(request(seed=2))
    entry_c = ram.cache.lookup(key_c)

    store = PersistentFormatStore(root)
    assert store.get(key_a) is not None  # disk hit on A
    with failing_fsync(fail_from=0):
        assert store.put(key_c, entry_c) is False  # C's spill fails
    assert store.degraded
    assert store.pressure.is_degraded("persist")
    assert key_b not in store  # the entry not hit is the victim
    assert key_a in store and key_c not in store
    assert store.stats["evictions"] == 1
    assert store.get(key_a) is not None  # A still loads
