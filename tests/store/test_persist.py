"""Persistent format store: spill, warm-start reload, budget, manifest."""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import GV100
from repro.matrices import uniform_random
from repro.runtime import PlanCache, SpmmRequest, SpmmRuntime
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
    fresh = runtime(root)
    fresh.run(request())
    assert fresh.cache.stats["disk_hits"] == 1
    fresh.run(request())  # second run: pure RAM hit
    assert fresh.cache.stats["disk_hits"] == 1
    assert fresh.cache.stats["hits"] == 2


def test_readonly_store_never_writes(tmp_path):
    root = str(tmp_path / "store")
    runtime(root).run(request())
    manifest = os.path.join(root, "manifest.json")
    before = os.path.getmtime(manifest)

    ro = SpmmRuntime(
        GV100,
        cache=PlanCache(persist=PersistentFormatStore(root, readonly=True)),
    )
    rec = ro.run(request(seed=7))  # a miss: would spill if writable
    assert rec.record.digest()
    assert ro.cache.spills == 0
    assert os.path.getmtime(manifest) == before


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
        assert store.disk_bytes() == 0


def test_budget_evicts_oldest_entries(tmp_path):
    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request(seed=0))
    baseline = PersistentFormatStore(root).disk_bytes()

    tight = SpmmRuntime(
        GV100,
        cache=PlanCache(
            persist=PersistentFormatStore(root, max_bytes=int(baseline * 1.5))
        ),
    )
    for seed in range(1, 4):
        tight.run(request(seed=seed))
    after = PersistentFormatStore(root)
    assert after.disk_bytes() <= int(baseline * 1.5) + baseline  # keep + slack
    assert len(after) < 4  # something was evicted
    assert after.stats["misses"] == 0


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


def test_lru_touch_on_disk_hit_protects_hot_entry(tmp_path):
    """Eviction is LRU, not insert-order: a disk fall-through hit
    refreshes the entry's recency, so the cold neighbor is the victim.
    """
    from repro.runtime import matrix_fingerprint

    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request(seed=0))  # oldest insert
    rt.run(request(seed=1))
    budget = PersistentFormatStore(root).disk_bytes()  # fits 2 entries

    tight = SpmmRuntime(
        GV100,
        cache=PlanCache(persist=PersistentFormatStore(root, max_bytes=budget)),
    )
    # Disk fall-through reload of the seed-0 entry touches it ...
    tight.run(request(seed=0))
    assert tight.cache.persist.stats["loads"] >= 1
    # ... so spilling a third entry evicts seed-1, not the older seed-0.
    tight.run(request(seed=2))
    survivors = set(PersistentFormatStore(root).fingerprints())
    fp = lambda seed: matrix_fingerprint(uniform_random(32, 32, 0.1, seed=seed))
    assert fp(0) in survivors
    assert fp(2) in survivors
    assert fp(1) not in survivors


def test_lru_spill_reload_roundtrip_after_eviction(tmp_path):
    """A warm start against the post-eviction store still reloads the
    surviving (touched) entry with zero conversions.
    """
    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request(seed=0))
    rt.run(request(seed=1))
    budget = PersistentFormatStore(root).disk_bytes()
    tight = SpmmRuntime(
        GV100,
        cache=PlanCache(persist=PersistentFormatStore(root, max_bytes=budget)),
    )
    tight.run(request(seed=0))  # touch
    tight.run(request(seed=2))  # evicts seed-1
    want = rt.run(request(seed=0)).record.digest()

    fresh = runtime(root)
    outcome = fresh.run(request(seed=0))
    assert outcome.record.digest() == want
    assert fresh.cache.persist.stats["misses"] == 0


def test_readonly_touch_skips_manifest_write(tmp_path):
    """A readonly handle's disk hit must not rewrite the manifest."""
    root = str(tmp_path / "store")
    rt = runtime(root)
    rt.run(request(seed=0))
    manifest = os.path.join(root, "manifest.json")
    before = os.stat(manifest).st_mtime_ns
    ro = SpmmRuntime(
        GV100,
        cache=PlanCache(persist=PersistentFormatStore(root, readonly=True)),
    )
    ro.run(request(seed=0))  # disk fall-through hit
    assert ro.cache.persist.stats["loads"] >= 1
    assert os.stat(manifest).st_mtime_ns == before
