"""Persistent cross-run format/plan store: warm-start with zero conversions.

The paper's amortization argument — pay the data transformation once,
reuse it across many multi-vector multiplies — stops at process exit for
an in-memory :class:`~repro.runtime.cache.PlanCache`.
:class:`PersistentFormatStore` extends it across process lifetimes: cache
entries spill to an on-disk layout of mmap-backed ``.npy`` segments plus
one fsynced JSON manifest, keyed by the same *fingerprint × dense width ×
GPU config* tuple the in-RAM cache uses, so a brand-new process (including
``python -m repro serve`` after a restart) reloads plans, format
conversions, engine artifacts, and seeded dense operands without
recomputing any of them.

On-disk layout (all paths relative to the store root)::

    manifest.json                       # fsynced, atomically replaced
    matrices/<fp>/base.<name>.npy       # the base container's arrays
    matrices/<fp>/fmt.<f>.<name>.npy    # adapter-backed derived formats
    matrices/<fp>/fmt.<f>.pkl           # formats without an array adapter
    entries/<id>/art.<n>.npy|.pkl       # per-entry artifacts (dense, engine)

Matrices and their derived formats are stored once per fingerprint and
shared by every entry (k-sweeps over one matrix do not duplicate the
conversions).  Arrays load back with ``np.load(mmap_mode="r")`` — lazily
paged, read-only views, honoring the containers' immutability convention.

Writes are single-writer by contract: one process owns a store
directory (a ``run --store-dir`` process or the ``serve`` parent;
workers never open one).  Readers are safe against a concurrent writer
because the manifest is replaced atomically and data files are written
before the manifest that references them.  Entries stay until the
directory is cleared; only the quarantine of a corrupt file and the
disk-full path (:meth:`PersistentFormatStore._degrade`) drop one.  A
disk hit bumps its entry's recency stamp in memory only, so it writes
nothing; the stamp reaches disk with the next manifest write that
happens anyway, and a crash loses only recency.  Artifact/format
pickles are trusted exactly as much as the store directory itself (same
trust model as the run journal).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import zlib

import numpy as np

from ..errors import OperandCorruptionError
from ..util import atomic_write, canonical_json
from .layout import (
    ADAPTERS,
    array_crc32,
    matrix_arrays,
    matrix_from_arrays,
    native_contiguous,
)

#: Manifest schema version (bumped on incompatible layout changes).
#: v2 added per-file CRC32 stamps; v1 stores are treated as empty and
#: re-derived rather than loaded unverifiable.
MANIFEST_VERSION = 2

#: Stat names every store reports (zeroed at construction).
STAT_KEYS = (
    "spills",
    "loads",
    "misses",
    "evictions",
    "bytes_written",
    "spill_s",
    "load_s",
    "verify_s",
    "corrupt_dropped",
    "write_errors",
)

#: Exceptions a reload treats as a corrupt/torn on-disk artifact (the
#: entry is dropped, counted, and re-derived — never believed).
_CORRUPT_EXCS = (
    OperandCorruptionError,
    OSError,
    ValueError,
    EOFError,
    KeyError,
    pickle.UnpicklingError,
)


def encode_key(key: tuple) -> str:
    """Canonical string form of a plan-cache key (manifest dictionary key)."""
    return canonical_json(list(key))


def _entry_id(key_str: str) -> str:
    return hashlib.sha256(key_str.encode()).hexdigest()[:24]


def _blob_crc32(blob: bytes) -> int:
    """CRC32 of a pickle's bytes (its integrity stamp)."""
    return zlib.crc32(blob) & 0xFFFFFFFF


class PersistentFormatStore:
    """On-disk spill/reload tier for :class:`~repro.runtime.cache.PlanCache`."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str, *, pressure=None):
        from ..runtime.pressure import ResourcePressure

        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._manifest = self._load_manifest()
        #: process-local rebuilt matrices, fingerprint -> container
        self._matrices: dict[str, object] = {}
        #: rel paths whose checksum already verified in this process
        self._verified: set[str] = set()
        #: resource-exhaustion policy (shareable across planes); a write
        #: failure flips the store read-only for the rest of the lifetime
        self.pressure = pressure if pressure is not None else ResourcePressure()
        self._write_disabled = False
        self.stats = {k: (0.0 if k.endswith("_s") else 0) for k in STAT_KEYS}

    # ------------------------------------------------------------ manifest
    def _manifest_path(self) -> str:
        return os.path.join(self.root, self.MANIFEST)

    def _load_manifest(self) -> dict:
        """The manifest on disk; never raises on content.

        A missing, undecodable or unparsable manifest, a non-object, or
        one of an unknown layout is treated as empty (its entries are
        re-derived) rather than misread.
        """
        empty = {"version": MANIFEST_VERSION, "seq": 0, "matrices": {}, "entries": {}}
        try:
            with open(self._manifest_path(), encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (FileNotFoundError, ValueError, RecursionError):
            return empty
        if not isinstance(manifest, dict) or any(
            not isinstance(manifest.get(key), type(value))
            for key, value in empty.items()
        ) or manifest["version"] != MANIFEST_VERSION:
            return empty
        return manifest

    def _write_manifest(self) -> None:
        atomic_write(
            self._manifest_path(),
            json.dumps(self._manifest, sort_keys=True, indent=1),
        )

    # --------------------------------------------------------------- paths
    def _abs(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def _save_array(self, rel: str, arr) -> tuple[int, int]:
        """Write one ``.npy``; returns ``(nbytes, crc)`` for the manifest."""
        path = self._abs(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        a = native_contiguous(np.asarray(arr))
        with open(path, "wb") as fh:
            np.save(fh, a)
            fh.flush()
            os.fsync(fh.fileno())
        self._verified.add(rel)  # we just wrote these exact bytes
        nbytes = os.path.getsize(path)
        self.stats["bytes_written"] += nbytes
        return nbytes, array_crc32(a)

    def _save_pickle(self, rel: str, obj) -> tuple[int, int]:
        """Write one pickle; returns ``(nbytes, crc)`` over its bytes."""
        path = self._abs(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        self._verified.add(rel)
        self.stats["bytes_written"] += len(blob)
        return len(blob), _blob_crc32(blob)

    def _save_arrays(self, directory: str, stem: str, arrays: dict) -> dict:
        """Write a row's arrays as ``<directory>/<stem>.<name>.npy``.

        Returns the row's ``arrays`` (name -> path), ``crc`` and ``bytes``
        manifest fields.
        """
        refs, crcs, total = {}, {}, 0
        for name, arr in arrays.items():
            rel = os.path.join(directory, f"{stem}.{name}.npy")
            nbytes, crcs[name] = self._save_array(rel, arr)
            refs[name] = rel
            total += nbytes
        return {"arrays": refs, "crc": crcs, "bytes": total}

    def _verify(self, rel: str, crc, checksum, data) -> None:
        """Check ``data`` against its manifest CRC, once per path per process.

        Verification forces one linear read of the data — measured in
        ``verify_s`` so the warm-start bench can assert the overhead stays
        under its budget.  A mismatch raises
        :class:`~repro.errors.OperandCorruptionError`; a torn or truncated
        file surfaces earlier as ``ValueError``/``OSError`` from the load —
        callers handle both identically (drop the entry, re-derive).
        """
        if crc is None or rel in self._verified:
            return
        start = time.perf_counter()
        actual = checksum(data)
        self.stats["verify_s"] += time.perf_counter() - start
        if actual != crc:
            raise OperandCorruptionError(
                f"persisted file {rel} failed its integrity check",
                segment=rel,
                arrays=(rel,),
                plane="persist",
            )
        self._verified.add(rel)

    def _load_array(self, rel: str, crc=None):
        """mmap one ``.npy``, verifying its checksum on first load."""
        arr = np.load(self._abs(rel), mmap_mode="r")
        self._verify(rel, crc, array_crc32, arr)
        return arr

    def _load_pickle(self, rel: str, crc=None):
        with open(self._abs(rel), "rb") as fh:
            blob = fh.read()
        self._verify(rel, crc, _blob_crc32, blob)
        return pickle.loads(blob)

    def _load_arrays(self, ref: dict) -> dict:
        """mmap every array of a manifest row written by :meth:`_save_arrays`."""
        crcs = ref.get("crc", {})
        return {
            name: self._load_array(rel, crcs.get(name))
            for name, rel in ref["arrays"].items()
        }

    # ------------------------------------------------------------ matrices
    def _persist_matrix(self, fingerprint: str, matrix) -> dict:
        """Write the base container to disk; returns its manifest row."""
        arrays = matrix_arrays(matrix)
        kind = matrix.format_name if arrays is not None else "coo"
        if arrays is None:
            # No adapter for this container: fall back to its COO triplets.
            rows, cols, vals = matrix.to_coo_arrays()
            arrays = {"rows": rows, "cols": cols, "values": vals}
        row = {
            "kind": kind,
            "shape": [int(matrix.n_rows), int(matrix.n_cols)],
            "formats": {},
            **self._save_arrays(os.path.join("matrices", fingerprint), "base", arrays),
        }
        self._manifest["matrices"][fingerprint] = row
        return row

    def _persist_formats(self, fingerprint: str, row: dict, store) -> int:
        """Merge ``store``'s cached formats into the matrix row; new count."""
        directory = os.path.join("matrices", fingerprint)
        added = 0
        for fmt, container in store._formats.items():
            if fmt in row["formats"]:
                continue
            arrays = matrix_arrays(container) if fmt in ADAPTERS else None
            if arrays is not None:
                ref = {"kind": "arrays", **self._save_arrays(directory, f"fmt.{fmt}", arrays)}
            else:
                rel = os.path.join(directory, f"fmt.{fmt}.pkl")
                nbytes, crc = self._save_pickle(rel, container)
                ref = {"kind": "pickle", "path": rel, "crc": crc, "bytes": nbytes}
            row["formats"][fmt] = ref
            row["bytes"] += ref["bytes"]
            added += 1
        return added

    def load_matrix(self, fingerprint: str):
        """Rebuild (and memoize) the base container for ``fingerprint``.

        Every backing array is checksum-verified on first load (memoized
        per process).  A corrupt, torn, or missing file quarantines the
        whole fingerprint — the matrix row *and* every entry built on it
        are dropped (``corrupt_dropped``) and ``None`` is returned, so
        the caller re-derives from the original operand rather than
        trusting damaged bytes.
        """
        cached = self._matrices.get(fingerprint)
        if cached is not None:
            return cached
        row = self._manifest["matrices"].get(fingerprint)
        if row is None:
            return None
        try:
            matrix = matrix_from_arrays(
                row["kind"], tuple(row["shape"]), self._load_arrays(row)
            )
        except _CORRUPT_EXCS:
            self._quarantine_matrix(fingerprint)
            return None
        from ..runtime.cache import seed_fingerprint

        seed_fingerprint(matrix, fingerprint)
        self._matrices[fingerprint] = matrix
        return matrix

    def fingerprints(self) -> list:
        """Every fingerprint with a persisted base matrix (sorted)."""
        return sorted(self._manifest["matrices"])

    # -------------------------------------------------------------- entries
    def put(self, key: tuple, entry) -> bool:
        """Write-through (or incrementally refresh) one cache entry.

        Persists the base matrix once per fingerprint, merges any newly
        materialized format conversions and artifacts, and records the
        plan.  Cheap when nothing new accrued since the last call —
        callers invoke this after every run (write-back), not just on
        insert, because conversions materialize lazily *during* runs.
        Returns ``True`` if anything was written.  A write failure
        (disk full, quota) never raises: the store degrades to read-only
        for the rest of this lifetime, evicts its least-recently-used
        entry to hand space back to the planes that matter more (the
        journal), and counts the incident (``write_errors``,
        ``pressure``) — warm starts keep serving from what is already on
        disk.  Writing the manifest also saves the recency stamps that
        disk hits bumped in memory since the last write.
        """
        if self._write_disabled:
            return False
        start = time.perf_counter()
        key_str = encode_key(key)
        fingerprint = str(key[0])
        try:
            known = self._manifest["entries"].get(key_str)
            row = self._manifest["matrices"].get(fingerprint)
            dirty = False
            if row is None:
                row = self._persist_matrix(fingerprint, entry.store.matrix)
                dirty = True
            if self._persist_formats(fingerprint, row, entry.store):
                dirty = True
            if known is None:
                eid = _entry_id(key_str)
                known = {
                    "id": eid,
                    "fingerprint": fingerprint,
                    "plan": entry.plan.to_dict(),
                    "artifacts": [],
                    "bytes": 0,
                    "seq": self._manifest["seq"],
                }
                self._manifest["entries"][key_str] = known
                self._manifest["seq"] += 1
                dirty = True
            if self._persist_artifacts(known, entry.store):
                dirty = True
            if dirty:
                self._write_manifest()
                self.stats["spills"] += 1
                self.stats["spill_s"] += time.perf_counter() - start
        except OSError as exc:
            self._degrade(exc)
            return False
        return dirty

    def _persist_artifacts(self, known: dict, store) -> int:
        existing = {canonical_json(a["key"]) for a in known["artifacts"]}
        added = 0
        for art_key, obj in store.artifacts.items():
            encoded = canonical_json(list(art_key))
            if encoded in existing:
                continue
            n = len(known["artifacts"])
            if isinstance(obj, np.ndarray):
                rel = os.path.join("entries", known["id"], f"art.{n}.npy")
                nbytes, crc = self._save_array(rel, obj)
                kind = "npy"
            else:
                rel = os.path.join("entries", known["id"], f"art.{n}.pkl")
                nbytes, crc = self._save_pickle(rel, obj)
                kind = "pickle"
            known["artifacts"].append(
                {"key": list(art_key), "kind": kind, "path": rel, "crc": crc}
            )
            known["bytes"] += nbytes
            added += 1
        return added

    def get(self, key: tuple):
        """Reload one cache entry, or ``None`` — the warm-start path.

        The returned :class:`~repro.runtime.cache.CacheEntry` carries the
        persisted plan, a :class:`~repro.formats.convert.FormatStore`
        pre-populated with every persisted conversion (so kernels report
        ``cached=True`` conversion spans), and every artifact, including
        the seeded dense operand and engine conversions.
        """
        key_str = encode_key(key)
        known = self._manifest["entries"].get(key_str)
        if known is None:
            self.stats["misses"] += 1
            return None
        start = time.perf_counter()
        from ..formats.convert import FormatStore
        from ..runtime.cache import CacheEntry
        from ..runtime.plan import SpmmPlan

        fingerprint = known["fingerprint"]
        matrix = self.load_matrix(fingerprint)
        if matrix is None:
            # Missing — or corrupt and just quarantined by load_matrix —
            # either way the caller re-derives.
            self.stats["misses"] += 1
            return None
        store = FormatStore(matrix)
        row = self._manifest["matrices"][fingerprint]
        try:
            for fmt, ref in row["formats"].items():
                if ref["kind"] == "arrays":
                    store._formats[fmt] = matrix_from_arrays(
                        fmt, tuple(row["shape"]), self._load_arrays(ref)
                    )
                else:
                    store._formats[fmt] = self._load_pickle(
                        ref["path"], ref.get("crc")
                    )
            for art in known["artifacts"]:
                art_key = tuple(
                    tuple(k) if isinstance(k, list) else k for k in art["key"]
                )
                load = self._load_array if art["kind"] == "npy" else self._load_pickle
                store.artifacts[art_key] = load(art["path"], art.get("crc"))
            plan = SpmmPlan.from_dict(known["plan"])
        except _CORRUPT_EXCS:
            # A torn or bit-flipped spill is dropped and re-derived, never
            # silently believed (the corruption failure matrix is in
            # docs/STORAGE.md).
            self._quarantine_entry(key_str)
            self.stats["misses"] += 1
            return None
        entry = CacheEntry(plan=plan, store=store)
        self._touch(known)
        self.stats["loads"] += 1
        self.stats["load_s"] += time.perf_counter() - start
        return entry

    def _touch(self, known: dict) -> None:
        """Mark one entry as just used, in memory only.

        ``seq`` doubles as the recency stamp: assigned at spill time and
        bumped on every disk hit, so :meth:`_degrade`'s min-``seq`` victim
        is the least-recently-*used* entry, not the oldest insert.  The
        bump reaches disk with the next manifest write that happens
        anyway (a spill, a quarantine, a degrade), never on its own.
        """
        known["seq"] = self._manifest["seq"]
        self._manifest["seq"] += 1

    def __contains__(self, key: tuple) -> bool:
        return encode_key(key) in self._manifest["entries"]

    def __len__(self) -> int:
        return len(self._manifest["entries"])

    # ------------------------------------------------------------ eviction
    def _drop_entry(self, key_str: str) -> None:
        known = self._manifest["entries"].pop(key_str)
        for art in known["artifacts"]:
            self._unlink(art["path"])
        fingerprint = known["fingerprint"]
        still_used = any(
            e["fingerprint"] == fingerprint
            for e in self._manifest["entries"].values()
        )
        if not still_used:
            row = self._manifest["matrices"].pop(fingerprint, None)
            self._matrices.pop(fingerprint, None)
            if row is not None:
                self._unlink_matrix_row(row)

    @staticmethod
    def _row_files(row: dict):
        """``(path, crc, kind)`` for every file a matrix row references."""
        for ref in (row, *row["formats"].values()):
            if "arrays" in ref:
                crcs = ref.get("crc", {})
                for name, rel in ref["arrays"].items():
                    yield rel, crcs.get(name), "npy"
            else:
                yield ref["path"], ref.get("crc"), "pickle"

    def _unlink_matrix_row(self, row: dict) -> None:
        for rel, _, _ in self._row_files(row):
            self._unlink(rel)

    def _unlink(self, rel: str) -> None:
        try:
            os.unlink(self._abs(rel))
        except OSError:
            pass
        self._verified.discard(rel)

    # ----------------------------------------------- integrity & pressure
    def _quarantine_matrix(self, fingerprint: str) -> None:
        """Drop a corrupt persisted matrix and every entry built on it.

        Counted once per incident in ``corrupt_dropped``.
        """
        self.stats["corrupt_dropped"] += 1
        self._matrices.pop(fingerprint, None)
        stale = [
            k for k, e in self._manifest["entries"].items()
            if e["fingerprint"] == fingerprint
        ]
        for k in stale:
            self._drop_entry(k)
        row = self._manifest["matrices"].pop(fingerprint, None)
        if row is not None:
            self._unlink_matrix_row(row)
        self._safe_write_manifest()

    def _quarantine_entry(self, key_str: str) -> None:
        """Drop one entry whose formats/artifacts failed verification."""
        self.stats["corrupt_dropped"] += 1
        if key_str in self._manifest["entries"]:
            self._drop_entry(key_str)
        self._safe_write_manifest()

    def _degrade(self, exc: OSError) -> None:
        """Write failure: flip read-only for this lifetime, evict the LRU.

        Eviction hands disk back to the planes that matter more under
        ENOSPC (the run journal and intent log); the store keeps
        answering warm starts from whatever the manifest already trusts.
        """
        self.pressure.strike("persist", exc)
        self.stats["write_errors"] += 1
        self._write_disabled = True
        entries = self._manifest["entries"]
        victim = min(entries, key=lambda k: entries[k]["seq"], default=None)
        if victim is not None:
            self._drop_entry(victim)
            self.stats["evictions"] += 1
        self._safe_write_manifest()

    def _safe_write_manifest(self) -> None:
        """Manifest write that degrades instead of raising on I/O failure."""
        try:
            self._write_manifest()
        except OSError as exc:
            self.pressure.strike("persist", exc)
            self.stats["write_errors"] += 1
            self._write_disabled = True

    @property
    def degraded(self) -> bool:
        """True once a write failure flipped this handle read-only."""
        return self._write_disabled

    def verify_manifest(self, *, repair: bool = False) -> dict:
        """Integrity-audit every file the manifest references.

        Re-checks checksums from disk even for files verified earlier in
        this process (bytes can rot *after* a load), so this is the
        ``selfcheck`` backing for the persist plane.  With ``repair=True``
        (writer side) the matrices/entries touching a bad file are
        quarantined so later gets re-derive.  Returns a plain-JSON report.
        """
        corrupt: list = []
        missing: list = []
        checked = 0
        bad_fingerprints: set = set()
        bad_entries: set = set()

        def check(rel, crc, kind, owner):
            nonlocal checked
            checked += 1
            state = self._check_file(rel, crc, kind)
            if state == "ok":
                return
            (missing if state == "missing" else corrupt).append(rel)
            scope, name = owner
            (bad_fingerprints if scope == "matrix" else bad_entries).add(name)

        for fp, row in self._manifest["matrices"].items():
            for rel, crc, kind in self._row_files(row):
                check(rel, crc, kind, ("matrix", fp))
        for key_str, known in self._manifest["entries"].items():
            for art in known["artifacts"]:
                check(
                    art["path"], art.get("crc"), art["kind"],
                    ("entry", key_str),
                )
        if repair:
            for fp in bad_fingerprints:
                self._quarantine_matrix(fp)
            for key_str in bad_entries:
                if key_str in self._manifest["entries"]:
                    self._quarantine_entry(key_str)
        return {
            "files": checked,
            "verified": checked - len(corrupt) - len(missing),
            "corrupt": sorted(corrupt),
            "missing": sorted(missing),
            "repaired": bool(repair and (bad_fingerprints or bad_entries)),
        }

    def _check_file(self, rel: str, crc, kind: str) -> str:
        """``"ok"`` / ``"corrupt"`` / ``"missing"`` for one referenced file."""
        path = self._abs(rel)
        start = time.perf_counter()
        try:
            if kind == "npy":
                actual = array_crc32(np.load(path, mmap_mode="r"))
            else:
                with open(path, "rb") as fh:
                    actual = _blob_crc32(fh.read())
        except FileNotFoundError:
            return "missing"
        except _CORRUPT_EXCS:
            return "corrupt"
        finally:
            self.stats["verify_s"] += time.perf_counter() - start
        if crc is not None and actual != crc:
            return "corrupt"
        return "ok"
