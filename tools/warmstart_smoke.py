#!/usr/bin/env python3
"""Warm-start round trip for the persistent operand store.

The store *test suite* exercises spill/reload in-process; this tool is
the outside-in complement used by the CI ``warmstart-smoke`` job: it runs
a real ``python -m repro run --store-dir`` subprocess cold (empty store
directory), then runs the same request again in a **fresh process** over
the same directory, and asserts

* the warm run performed **zero** format conversions (every
  ``convert:*`` / ``engine.convert`` span in its trace is a cache
  replay, ``cached=true``);
* the warm run wrote nothing: ``manifest.json`` is byte-identical
  before and after it (a disk hit keeps recency in memory);
* the warm run's record JSON — digest included — is byte-identical to
  the cold run's.

Exit status: 0 on parity, nonzero on any uncached conversion, manifest
write, digest drift, or CLI failure.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = "uniform:800:600:0.05:11"


def cli(args):
    """Run ``python -m repro`` with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=REPO, capture_output=True, text=True,
    )


def run_once(store_dir, trace_path):
    """One ``repro run`` against ``store_dir``; returns the record JSON."""
    proc = cli([
        "run", "--generate", SPEC, "--k", "32", "--repeat", "1", "--json",
        "--store-dir", store_dir, "--trace", trace_path, "--force",
    ])
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"repro run failed (exit {proc.returncode})")
    record = proc.stdout.strip()
    json.loads(record)  # must be one well-formed record document
    return record


def conversion_spans(trace_path):
    """Every conversion span in a jsonl trace: (name, cached) pairs."""
    spans = []
    with open(trace_path) as fh:
        for line in fh:
            span = json.loads(line)
            name = span.get("name", "")
            if name.startswith("convert:") or name == "engine.convert":
                spans.append((name, span["attributes"].get("cached", False)))
    return spans


def manifest_sha256(store_dir):
    """SHA-256 of the store's manifest bytes."""
    with open(os.path.join(store_dir, "manifest.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp:
        store = os.path.join(tmp, "store")
        cold_record = run_once(store, os.path.join(tmp, "cold.jsonl"))
        cold_spans = conversion_spans(os.path.join(tmp, "cold.jsonl"))
        if not cold_spans:
            print("FAIL: cold run produced no conversion spans")
            return 1
        if all(cached for _, cached in cold_spans):
            print("FAIL: cold run claims every conversion was cached")
            return 1
        print(f"cold: {len(cold_spans)} conversion spans "
              f"({sum(1 for _, c in cold_spans if not c)} executed)")

        # Fresh process, same directory: the persistent store must answer.
        before = manifest_sha256(store)
        warm_record = run_once(store, os.path.join(tmp, "warm.jsonl"))
        warm_spans = conversion_spans(os.path.join(tmp, "warm.jsonl"))
        uncached = [name for name, cached in warm_spans if not cached]
        if uncached:
            print(f"FAIL: warm run re-converted: {uncached}")
            return 1
        print(f"warm: {len(warm_spans)} conversion spans, all cached")
        if manifest_sha256(store) != before:
            print("FAIL: warm run rewrote manifest.json")
            return 1
        print("warm: manifest.json unchanged")

        # Record identity: everything but extras.trace_summary, the one
        # field RunRecord.digest() itself excludes (wall-clock telemetry).
        def identity(record_text):
            d = json.loads(record_text)
            d.get("extras", {}).pop("trace_summary", None)
            return json.dumps(d, sort_keys=True)

        if identity(warm_record) != identity(cold_record):
            print("FAIL: warm record differs from cold record")
            return 1
        print("OK: warm start replayed with zero conversions, "
              "record digest parity holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
