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
   compacted — rewritten atomically (:func:`~repro.util.atomic_write`)
   with only the trusted entries — so distrusted lines do not
   accumulate across resume cycles.

The append, rewrite and line-reading mechanics are :class:`DurableLog`'s,
shared with the resident service's intent log (:mod:`repro.service.state`).

Schema v1, one object per line::

    {"version": 1, "kind": "record", "fingerprint": "<sha256>",
     "digest": "<sha256>", "record": {<RunRecord.to_dict()>}}

Entries whose fingerprint matches no item of the resuming batch are kept
(the journal may serve overlapping batches) but not replayed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import JournalError
from ..telemetry import NULL_TRACER
from ..util import atomic_write, to_plain
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


def _entry_line(fingerprint: str, record: RunRecord, digest=None) -> str:
    """One complete schema-v1 journal line (no trailing newline).

    Compact single-line JSON — the journal is JSONL, so the pretty-printed
    :func:`~repro.util.canonical_json` form cannot be used here.
    ``digest`` is ``record.digest()``, computed here unless given.
    """
    doc = {
        "version": JOURNAL_VERSION,
        "kind": "record",
        "fingerprint": fingerprint,
        "digest": record.digest() if digest is None else digest,
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


def read_log(path, what: str) -> list:
    """``(lineno, doc)`` per non-blank line of a JSONL log; never raises on content.

    Each line decodes alone: one that is not UTF-8 or not JSON (a torn
    append, a flipped byte, nesting too deep) has ``doc`` None.  A missing
    file has no lines; a read failure raises :class:`JournalError`.
    """
    try:
        with open(path, "rb") as fh:
            raw_lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise JournalError(f"cannot read {what} {path}: {exc}") from None
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if raw.strip():
            try:
                lines.append((lineno, json.loads(raw.decode("utf-8"))))
            except (ValueError, RecursionError):  # incl. UnicodeDecodeError
                lines.append((lineno, None))
    return lines


class DurableLog:
    """One append-only JSONL file of keyed lines, written durably.

    The run journal and the service's intent log are two instances.  An
    append is one ``write`` + flush + fsync of one complete line, so a
    crash can only ever cost the line being written; keys dedupe for the
    instance's lifetime.  A write failure (``ENOSPC``, quota) never
    raises: it strikes the log's ``plane`` (one loud stderr warning) and
    later appends are skipped.  Each key not durably written counts once
    in :attr:`lost` and, like a written one, is marked logged.  Answers
    stay correct; a restart re-executes what was lost (at-least-once,
    never silent loss — see docs/RELIABILITY.md).
    """

    def __init__(self, path, plane: str, *, pressure=None):
        from .pressure import ResourcePressure

        self.path = str(path)
        self.plane = plane
        #: keys this instance logged, lost, or loaded: appends skip them
        self.keys: set[str] = set()
        #: lines durably written by this instance (dedupes excluded)
        self.appends = 0
        #: keys *not* durably written because the log is degraded
        self.lost = 0
        #: resource-exhaustion policy (shareable across planes — the
        #: service shares one instance across journal/intent/persist)
        self.pressure = pressure if pressure is not None else ResourcePressure()
        #: where writes are counted: ``<plane>.appends`` per durable line,
        #: ``durability.lost`` per lost key (set by the log's owner)
        self.metrics = NULL_TRACER.metrics

    @property
    def degraded(self) -> bool:
        """True once a write failure flipped this log non-durable."""
        return self.pressure.is_degraded(self.plane)

    def append_line(self, key: str, render) -> bool:
        """Durably append ``render()`` (rendered only if written) under ``key``.

        True when the line landed, False for a dedupe or a loss.
        """
        if key in self.keys:
            return False
        if not self.degraded:
            line = render()
            try:
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                self.pressure.strike(self.plane, exc)
            else:
                self.keys.add(key)
                self.appends += 1
                self.metrics.counter(f"{self.plane}.appends").inc()
                return True
        self.keys.add(key)
        self.lost += 1
        self.pressure.record_lost(self.plane)
        self.metrics.counter("durability.lost").inc()
        return False

    def rewrite(self, lines: dict) -> bool:
        """Atomically replace the file with ``lines`` (key → line), in order.

        A crash mid-rewrite leaves the previous file whole, which is also
        why a failed rewrite (disk full) degrades instead of raising.  The
        keys become the logged set (join it on failure); returns whether
        the rewrite landed.
        """
        try:
            atomic_write(self.path, "".join(line + "\n" for line in lines.values()))
        except OSError as exc:
            self.pressure.strike(self.plane, exc)
            self.keys.update(lines)
            return False
        self.keys = set(lines)
        return True


class RunJournal(DurableLog):
    """The batch run journal: a :class:`DurableLog` of verified records.

    Appends dedupe by fingerprint, so a batch containing repeats of one
    request journals it once, and a resumed run never re-appends what it
    replayed (see the module docstring).
    """

    def __init__(self, path, *, pressure=None):
        super().__init__(path, "journal", pressure=pressure)

    # -------------------------------------------------------------- writes
    def append(self, fingerprint: str, record: RunRecord, *,
               digest: str | None = None) -> bool:
        """Append one completed item durably; returns False when it didn't.

        False means a dedupe or a loss to a degraded journal (see
        :class:`DurableLog`); the batch keeps completing either way.  A
        caller that already holds ``record.digest()`` passes it as
        ``digest``, so the line does not render it a second time.
        """
        return self.append_line(
            fingerprint,
            functools.partial(_entry_line, fingerprint, record, digest),
        )

    def seed_replayed(self, replay: JournalReplay) -> None:
        """Mark a load's trusted fingerprints as already journaled."""
        self.keys.update(replay.records)

    def compact(self, replay: JournalReplay) -> bool:
        """Atomically rewrite the file with only ``replay``'s trusted entries.

        Called on resume when the load reported anomalies: distrusted
        lines are dropped so they cannot re-trigger on the next resume,
        and the re-executed items append fresh verified entries.  A
        failed compaction leaves the old journal whole (anomalies simply
        re-surface on the next resume).  Returns whether it landed.
        """
        return self.rewrite({
            fp: _entry_line(fp, replay.records[fp])
            for fp in replay.order
            if fp in replay.records
        })

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
        lines = read_log(path, "journal")
        replay.total_lines = len(lines)
        distrusted: set[str] = set()

        def flag(lineno: int, kind: str, fingerprint=None) -> None:
            replay.anomalies.append(
                {"line": lineno, "kind": kind, "fingerprint": fingerprint}
            )
            if fingerprint is not None:
                distrusted.add(fingerprint)

        for pos, (lineno, doc) in enumerate(lines):
            if doc is None:
                is_tail = pos == len(lines) - 1
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
