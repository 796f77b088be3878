"""Append-only JSONL run journal: crash-safe checkpoint/resume for batches.

A corpus sweep (Fig. 16's ~1k-matrix batch) that dies at item 937 should
not repeat items 0–936.  The journal is the durable side of the batch
executor: every completed item is appended as one self-describing JSON
line keyed by its *request fingerprint* (the content hash of everything
that determines the run — matrix, dense operand, tile width, GPU config,
SSF threshold).  ``run --batch FILE --resume JOURNAL`` loads the journal,
verifies each entry's stored record against its stored digest, replays
the trusted entries, and executes only the remainder.

Design rules, in order of importance:

1. **Never trust, always verify.**  An entry is replayed only if its
   record's recomputed :meth:`~repro.runtime.record.RunRecord.digest`
   matches the digest stored beside it.  Mismatches, duplicated
   fingerprints, and undecodable lines are *anomalies*: reported in the
   load summary and re-executed, never silently believed.
2. **A torn write is data loss, not corruption of neighbors.**  Appends
   are one ``write()`` of one complete line; a crash mid-append leaves a
   truncated tail line that the loader tolerates (that item simply
   re-executes on resume).
3. **Resume heals.**  When a load surfaces anomalies, the journal is
   compacted — rewritten atomically (temp file + rename, the PR 3
   pattern) with only the trusted entries — so distrusted lines do not
   accumulate across resume cycles.

Schema v1, one object per line::

    {"version": 1, "kind": "record", "fingerprint": "<sha256>",
     "digest": "<sha256>", "record": {<RunRecord.to_dict()>}}

Entries whose fingerprint matches no item of the resuming batch are kept
(the journal may serve overlapping batches) but not replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..errors import JournalError
from ..util import to_plain
from .cache import matrix_fingerprint
from .record import RunRecord

#: Journal line schema version; bump on incompatible change.
JOURNAL_VERSION = 1

#: Anomaly kinds a load can report (see :class:`JournalReplay`).
ANOMALY_KINDS = (
    "truncated_tail",
    "corrupt_line",
    "unsupported_version",
    "malformed_entry",
    "digest_mismatch",
    "duplicate_fingerprint",
)


def _entry_line(fingerprint: str, record: RunRecord) -> str:
    """One complete schema-v1 journal line (no trailing newline).

    Compact single-line JSON — the journal is JSONL, so the pretty-printed
    :func:`~repro.util.canonical_json` form cannot be used here.
    """
    doc = {
        "version": JOURNAL_VERSION,
        "kind": "record",
        "fingerprint": fingerprint,
        "digest": record.digest(),
        "record": record.to_dict(),
    }
    return json.dumps(to_plain(doc), sort_keys=True, separators=(",", ":"))


def request_fingerprint(request, config, ssf_threshold: float) -> str:
    """Content hash identifying one batch item across process lifetimes.

    Covers everything that determines the item's run record: the matrix
    content hash, the dense operand (explicit bytes, or the ``(k, seed)``
    spec that derives it), the tile width, the GPU config, and the
    effective SSF threshold.  Equal fingerprints imply digest-identical
    records, which is what lets a resume replay a journaled record in
    place of re-execution.
    """
    h = hashlib.sha256()
    h.update(matrix_fingerprint(request.matrix).encode())
    if request.dense is not None:
        a = np.ascontiguousarray(request.dense)
        h.update(f"dense:{a.shape}:{a.dtype}".encode())
        h.update(a.tobytes())
    else:
        h.update(f"seeded:{int(request.k)}:{int(request.seed)}".encode())
    h.update(
        f":{int(request.tile_width)}:{config.name}"
        f":{round(float(ssf_threshold), 12)}".encode()
    )
    return h.hexdigest()


@dataclass
class JournalReplay:
    """What one journal load yields: trusted records plus anomaly report.

    ``records`` maps fingerprint → verified :class:`RunRecord`;
    ``order`` preserves the fingerprints' original append order (used by
    compaction); ``anomalies`` is a list of
    ``{"line": n, "kind": k, "fingerprint": fp|None}`` dicts covering
    every distrusted line.
    """

    path: str
    records: dict = field(default_factory=dict)
    order: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)
    total_lines: int = 0

    @property
    def clean(self) -> bool:
        """True when every line parsed, verified, and was unique."""
        return not self.anomalies

    def summary(self) -> dict:
        """Plain-JSON load report for the CLI batch summary."""
        counts: dict[str, int] = {}
        for a in self.anomalies:
            counts[a["kind"]] = counts.get(a["kind"], 0) + 1
        return {
            "path": self.path,
            "schema_version": JOURNAL_VERSION,
            "total_lines": int(self.total_lines),
            "trusted_entries": len(self.records),
            "anomalies": list(self.anomalies),
            "anomaly_counts": counts,
        }


class RunJournal:
    """One append-only JSONL journal file (see the module docstring).

    The instance dedupes appends by fingerprint for its lifetime, so a
    batch containing repeats of one request journals it once, and a
    resumed run never re-appends what it replayed.
    """

    def __init__(self, path, *, pressure=None):
        from .pressure import ResourcePressure

        self.path = str(path)
        self._appended: set[str] = set()
        #: lines durably written by this instance (dedupes excluded)
        self.appends = 0
        #: appends *not* durably written because the journal is degraded
        self.lost = 0
        #: resource-exhaustion policy (shareable across planes — the
        #: service shares one instance across journal/intent/persist)
        self.pressure = pressure if pressure is not None else ResourcePressure()

    @property
    def degraded(self) -> bool:
        """True once a write failure flipped this journal non-durable."""
        return self.pressure.is_degraded("journal")

    # -------------------------------------------------------------- writes
    def append(self, fingerprint: str, record: RunRecord) -> bool:
        """Append one completed item durably; returns False when it didn't.

        The line is built in full before any I/O and written with a
        single ``write`` + flush + fsync, so a crash can only ever cost
        the line being written, never an earlier one.

        A write failure (``ENOSPC``, quota, permissions) does **not**
        raise and does **not** kill the batch: the journal flips into a
        loud non-durable degraded mode — the strike warns on stderr once,
        every skipped append is counted in :attr:`lost` (surfaced as the
        ``durability.lost`` metric), and the batch keeps completing.
        Results stay correct; the cost is purely that a later resume
        re-executes what could not be journaled (at-least-once, never
        silent loss — see docs/RELIABILITY.md).
        """
        if fingerprint in self._appended:
            return False
        if self.degraded:
            self.lost += 1
            self.pressure.record_lost("journal")
            return False
        line = _entry_line(fingerprint, record)
        try:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self.pressure.strike("journal", exc)
            self.lost += 1
            self.pressure.record_lost("journal")
            return False
        self._appended.add(fingerprint)
        self.appends += 1
        return True

    def seed_replayed(self, replay: JournalReplay) -> None:
        """Mark a load's trusted fingerprints as already journaled."""
        self._appended.update(replay.records)

    def compact(self, replay: JournalReplay) -> bool:
        """Atomically rewrite the file with only ``replay``'s trusted entries.

        Called on resume when the load reported anomalies: distrusted
        lines are dropped so they cannot re-trigger on the next resume,
        and the re-executed items append fresh verified entries.  The
        temp-file + rename pattern means a crash mid-compaction leaves
        the previous journal intact — which is also why a *failed*
        compaction (disk full) degrades instead of raising: the old
        journal is still whole, anomalies simply re-surface on the next
        resume.  Returns whether the rewrite landed.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        try:
            fd, tmp = tempfile.mkstemp(
                dir=directory, prefix="." + os.path.basename(self.path) + "."
            )
        except OSError as exc:
            self.pressure.strike("journal", exc)
            self.seed_replayed(replay)
            return False
        try:
            with os.fdopen(fd, "w") as fh:
                for fp in replay.order:
                    record = replay.records.get(fp)
                    if record is None:
                        continue
                    fh.write(_entry_line(fp, record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self.pressure.strike("journal", exc)
            self.seed_replayed(replay)
            return False
        self.seed_replayed(replay)
        return True

    def resume(self) -> JournalReplay:
        """Load this journal to resume from it; returns the load.

        A load with anomalies is compacted down to its trusted entries;
        a clean one only marks them as journaled.  Either way nothing
        replayed is appended again.
        """
        replay = self.load(self.path)
        if replay.anomalies:
            self.compact(replay)
        else:
            self.seed_replayed(replay)
        return replay

    # --------------------------------------------------------------- reads
    @classmethod
    def load(cls, path) -> JournalReplay:
        """Parse a journal, verifying every entry; never raises on content.

        Undecodable tail lines (torn final append), corrupt interior
        lines, wrong-version or structurally malformed entries, records
        whose recomputed digest disagrees with the stored one, and
        duplicated fingerprints are all reported as anomalies; any
        fingerprint touched by an anomaly is distrusted entirely.  A
        missing file is an empty (clean) replay.
        """
        path = str(path)
        replay = JournalReplay(path=path)
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            return replay
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from None

        lines = [
            (lineno, line)
            for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip()
        ]
        replay.total_lines = len(lines)
        distrusted: set[str] = set()

        def flag(lineno: int, kind: str, fingerprint=None) -> None:
            replay.anomalies.append(
                {"line": lineno, "kind": kind, "fingerprint": fingerprint}
            )
            if fingerprint is not None:
                distrusted.add(fingerprint)

        for pos, (lineno, line) in enumerate(lines):
            is_tail = pos == len(lines) - 1
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                flag(lineno, "truncated_tail" if is_tail else "corrupt_line")
                continue
            if not isinstance(doc, dict):
                flag(lineno, "malformed_entry")
                continue
            if doc.get("version") != JOURNAL_VERSION:
                flag(lineno, "unsupported_version")
                continue
            fp = doc.get("fingerprint")
            if (
                doc.get("kind") != "record"
                or not isinstance(fp, str)
                or not isinstance(doc.get("digest"), str)
                or not isinstance(doc.get("record"), dict)
            ):
                flag(lineno, "malformed_entry", fp if isinstance(fp, str) else None)
                continue
            try:
                record = RunRecord.from_dict(doc["record"])
                recomputed = record.digest()
            except Exception:
                flag(lineno, "malformed_entry", fp)
                continue
            if recomputed != doc["digest"]:
                flag(lineno, "digest_mismatch", fp)
                continue
            if fp in replay.records:
                flag(lineno, "duplicate_fingerprint", fp)
                continue
            replay.records[fp] = record
            replay.order.append(fp)

        for fp in distrusted:
            replay.records.pop(fp, None)
        replay.order = [fp for fp in replay.order if fp in replay.records]
        return replay
