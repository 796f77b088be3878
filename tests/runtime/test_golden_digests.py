"""Record digests pinned across commits.

Every other digest-parity test compares two paths of the *same* code, so
a change that alters what a record says (a stale memoized counter, a
reordered accumulation) passes them as long as every path changes
alike.  This module compares against ``golden_digests.json``, written by
an earlier commit, so such a change fails here.

Coverage: small seeded matrices from both planner branches (CSR and
DCSR C-stationary winners, online tiled DCSR) plus a COO input with
duplicate coordinates; k in {16, 64}; the service's three ladder rungs;
a cold run followed by a plan-cache hit on the same runtime; a warm
start, where a fresh runtime replays every case from the persistent
store an earlier runtime filled; and, at rung 0, both batch transports
(serial and the supervised pool, with and without fused windows) plus a
resume that replays the whole batch from its journal.

Regenerate only when a change to records is intended, and say why in
CHANGES.md::

    PYTHONPATH=src python tests/runtime/test_golden_digests.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.gpu import get_config
from repro.matrices import from_spec
from repro.runtime import ParallelExecutor, PlanCache, SpmmRequest, SpmmRuntime
from repro.service import LADDER
from repro.store import PersistentFormatStore

FIXTURE = Path(__file__).with_name("golden_digests.json")

#: name -> generator spec; the comments give the plan at rung 0
SPECS = {
    "uniform": "uniform:256:256:0.02:3",  # c_stationary_best, CSR wins
    "block_diag_small": "block_diagonal:512:512:0.02:3",  # DCSR wins
    "block_diag_online": "block_diagonal:1024:1024:0.01:3",  # online tiled
}
NAMES = (*SPECS, "coo_duplicates")
KS = (16, 64)
GPU = "gv100"

#: batch path -> (workers, coalesce); "resumed" journals the batch, then
#: replays it with ``resume=True`` on a fresh executor
BATCH_PATHS = {"serial": (1, False), "pool": (2, False), "fused": (2, True),
               "resumed": (1, False)}


def coo_with_duplicates() -> COOMatrix:
    """200 x 180 COO whose triplets repeat coordinates, unsorted."""
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 200, size=900)
    cols = rng.integers(0, 180, size=900)
    # repeat a slice of the triplets so duplicates are guaranteed
    rows = np.concatenate([rows, rows[:150]])
    cols = np.concatenate([cols, cols[:150]])
    vals = rng.uniform(-1.0, 1.0, size=rows.size).astype(np.float32)
    return COOMatrix((200, 180), rows, cols, vals)


def build_matrix(name: str):
    """A fresh matrix object, so a cold run shares no memo with another."""
    if name == "coo_duplicates":
        return coo_with_duplicates()
    return from_spec(SPECS[name])


def build_matrices() -> dict:
    return {name: build_matrix(name) for name in NAMES}


def run_case(runtime, matrix, k: int, rung: int) -> tuple[str, bool]:
    """(digest, cache_hit) of one run at ``rung``, as the service runs it."""
    request = SpmmRequest(matrix, k=k, seed=k + 1)
    caps = LADDER[rung]
    if caps is None:
        outcome = runtime.run(request)
    else:
        outcome = runtime.run(request, capabilities=caps, enforce_ladder=True)
    return outcome.record.digest(), outcome.cache_hit


def compute_digests(runtime=None) -> dict:
    """``"name|k|rung" -> [cold digest, hit digest]`` on one runtime."""
    runtime = runtime if runtime is not None else SpmmRuntime(get_config(GPU))
    out = {}
    for name, matrix in build_matrices().items():
        for k in KS:
            for rung in range(len(LADDER)):
                cold, cold_hit = run_case(runtime, matrix, k, rung)
                warm, warm_hit = run_case(runtime, matrix, k, rung)
                assert not cold_hit and warm_hit, (name, k, rung)
                out[f"{name}|{k}|{rung}"] = [cold, warm]
    return out


def load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def assert_pairs_match_fixture(got: dict) -> None:
    expected = load_fixture()["digests"]
    assert set(got) == set(expected)
    wrong = {case: (pair, expected[case]) for case, pair in got.items()
             if pair != [expected[case], expected[case]]}
    assert not wrong


def test_digests_match_fixture():
    assert_pairs_match_fixture(compute_digests())


def test_warm_start_digests_match_fixture(tmp_path):
    """A second lifetime over the same persistent store: fresh runtime,
    fresh matrix objects, every lookup a disk hit, every digest pinned."""
    def runtime():
        store = PersistentFormatStore(str(tmp_path / "store"))
        return SpmmRuntime(get_config(GPU), cache=PlanCache(persist=store))

    assert_pairs_match_fixture(compute_digests(runtime()))
    warm = runtime()
    got = {}
    for name, matrix in build_matrices().items():
        for k in KS:
            for rung in range(len(LADDER)):
                digest, hit = run_case(warm, matrix, k, rung)
                assert hit, (name, k, rung)
                got[f"{name}|{k}|{rung}"] = [digest, digest]
    stats = warm.cache.stats
    assert stats["misses"] == 0
    assert stats["disk_hits"] == stats["hits"] == len(got)
    assert_pairs_match_fixture(got)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("path", BATCH_PATHS)
def test_batch_digests_match_fixture(path, name, tmp_path):
    """Every batch transport reproduces the pinned rung-0 digests."""
    workers, coalesce = BATCH_PATHS[path]
    requests = [SpmmRequest(build_matrix(name), k=k, seed=k + 1) for k in KS]
    journal = tmp_path / "run.jsonl" if path == "resumed" else None

    def run_batch(resume=False):
        executor = ParallelExecutor(SpmmRuntime(get_config(GPU)), workers=workers)
        return executor.run_batch(
            requests, coalesce=coalesce, journal=journal, resume=resume
        )

    results = run_batch()
    if path == "resumed":
        results = run_batch(resume=True)
        assert results.n_replayed == len(KS)
        assert results.stats["executed"] == 0
    assert results.ok
    # the fused cell must really have run one wide pass for both ks
    assert all(("coalesce" in r.record.extras) == coalesce for r in results)
    expected = load_fixture()["digests"]
    assert [r.record.digest() for r in results] == [
        expected[f"{name}|{k}|0"] for k in KS
    ]


def test_fixture_covers_both_planner_branches():
    """The pinned cases still exercise what the module docstring says."""
    runtime = SpmmRuntime(get_config(GPU))
    variants = set()
    for matrix in build_matrices().values():
        for rung in range(len(LADDER)):
            caps = LADDER[rung]
            request = SpmmRequest(matrix, k=KS[0], seed=KS[0] + 1)
            outcome = (runtime.run(request) if caps is None else
                       runtime.run(request, capabilities=caps,
                                   enforce_ladder=True))
            variants.add(outcome.run.name)
    assert {"csr", "dcsr", "online_tiled_dcsr", "offline_tiled_dcsr",
            "untiled_csr"} <= variants


def _write() -> None:
    digests = compute_digests()
    doc = {
        "about": "record digests per 'matrix|k|rung'; "
                 "see tests/runtime/test_golden_digests.py",
        "digests": {case: pair[0] for case, pair in sorted(digests.items())},
    }
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    _write()
