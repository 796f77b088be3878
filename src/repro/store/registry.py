"""Shared-memory operand registry: ship each operand once, attach many times.

:class:`SharedOperandRegistry` is the owning side of the operand plane.
``publish_matrix`` / ``publish_dense`` place an operand's backing arrays
into one ``multiprocessing.shared_memory`` segment (laid out by
:mod:`repro.store.layout`) keyed by the matrix fingerprint, memoized so a
batch of requests over the same matrix ships it exactly once.  Workers
receive only the :class:`~repro.store.layout.SegmentDescriptor` and call
:func:`attach_matrix` / :func:`attach_dense` to map zero-copy, read-only
ndarray views — no pickling, no per-process copies, identical under
``fork`` and ``spawn`` start methods.

A segment lives until :meth:`SharedOperandRegistry.close` (the batch
executor's ``finally``, the service's drain) or until :meth:`republish`
replaces it with a clean copy.  Every live segment is recorded as a
*lease* file (``<lease_dir>/<segment>.json`` with the owner's pid), so
:meth:`sweep_orphans` in any later process can detect segments whose
owner died without unlinking — the crash-orphan path — and reclaim them.

Attach-side caveat: Python's ``resource_tracker`` would otherwise adopt
attached segments and unlink them when the *worker* exits, destroying the
parent's copy.  :func:`_attach_segment` opts out (``track=False`` on
3.13+, the documented ``unregister`` workaround before that).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from multiprocessing import shared_memory

import numpy as np

from ..errors import OperandCorruptionError
from .layout import (
    SegmentDescriptor,
    dense_token,
    matrix_arrays,
    matrix_from_arrays,
    native_contiguous,
    pack_specs,
    read_arrays,
    verify_arrays,
    write_arrays,
)

#: Stat names every registry reports (zeroed at construction).
STAT_KEYS = (
    "segments_created",
    "bytes_shipped",
    "publish_hits",
    "dense_dedup_hits",
    "orphans_swept",
    "unlinked",
    "publish_failures",
    "republished",
    "corruption_detected",
)


def default_lease_dir() -> str:
    """The per-user lease directory used when none is configured."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-operand-leases-{uid}")


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        shm = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        return shm


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink ``shm``, keeping the resource tracker balanced.

    An attach in this process (or a forked child sharing our tracker)
    already unregistered the name via :func:`_attach_segment`, so the
    unregister that ``unlink`` performs would hit a missing entry and the
    tracker process would print a KeyError traceback at exit.  Re-register
    first — registration is a set-add, so this is a no-op when the name is
    still tracked.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    shm.close()
    shm.unlink()


def pickled_nbytes(obj) -> int:
    """Size of ``obj`` pickled — the cost the operand plane avoids."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class SharedOperandRegistry:
    """Owner of the shared-memory segments for one process's operands."""

    def __init__(self, *, lease_dir: str | None = None, pressure=None):
        from ..runtime.pressure import ResourcePressure

        self.lease_dir = lease_dir if lease_dir is not None else default_lease_dir()
        os.makedirs(self.lease_dir, exist_ok=True)
        #: token -> (SharedMemory, SegmentDescriptor)
        self._segments: dict[str, tuple] = {}
        #: token -> (kind, shape, arrays) — the publisher's own copy, the
        #: source of truth :meth:`republish` rebuilds a corrupted segment
        #: from (array references, not copies: zero extra resident bytes)
        self._sources: dict[str, tuple] = {}
        self._counter = 0
        #: resource-exhaustion policy (shareable across planes)
        self.pressure = pressure if pressure is not None else ResourcePressure()
        self.stats = dict.fromkeys(STAT_KEYS, 0)

    # ---------------------------------------------------------- publishing
    def _segment_name(self, token: str) -> str:
        self._counter += 1
        return f"repro-{token[:12]}-{os.getpid()}-{self._counter}"

    def _publish(
        self, token: str, kind: str, shape, arrays: dict
    ) -> SegmentDescriptor | None:
        """Create and fill one segment; ``None`` under resource pressure.

        Shared-memory exhaustion (``ENOSPC``/``ENOMEM`` on the tmpfs
        backing ``/dev/shm``) degrades the registry to pickled shipping
        instead of crashing: the failure is classified into
        :attr:`pressure`, counted as ``publish_failures``, and callers
        fall back exactly as they do for adapter-less containers
        (``store.fallback_pickle`` on their side).
        """
        specs, total = pack_specs(arrays)
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=total, name=self._segment_name(token)
            )
        except OSError as exc:
            self.pressure.strike("registry", exc)
            self.stats["publish_failures"] += 1
            return None
        try:
            write_arrays(shm.buf, specs, arrays)
        except (OSError, ValueError) as exc:
            # Writing into the mapping faulted (tmpfs ran out under us):
            # drop the partial segment, degrade to pickled shipping.
            self.pressure.strike("registry", exc)
            self.stats["publish_failures"] += 1
            try:
                _unlink_segment(shm)
            except OSError:
                pass
            return None
        descriptor = SegmentDescriptor(
            segment=shm.name,
            token=token,
            kind=kind,
            shape=tuple(shape),
            arrays=specs,
            total_bytes=total,
        )
        self._segments[token] = (shm, descriptor)
        self._sources[token] = (kind, tuple(shape), dict(arrays))
        try:
            self._write_lease(descriptor)
        except OSError as exc:
            # A lost lease only impairs a *later* process's orphan sweep;
            # the publish itself stands.
            self.pressure.strike("registry", exc)
        self.stats["segments_created"] += 1
        self.stats["bytes_shipped"] += total
        return descriptor

    def publish_matrix(self, matrix, *, fingerprint: str) -> SegmentDescriptor | None:
        """Ship ``matrix`` into shared memory (once per fingerprint).

        Returns the descriptor, or ``None`` when the container has no
        registered array adapter *or* shared memory is exhausted
        (``publish_failures`` distinguishes the two); callers fall back
        to pickling and should count ``store.bytes_pickled`` /
        ``store.fallback_pickle``.  Repeat publishes of the same
        fingerprint return the existing descriptor (``publish_hits``).
        """
        held = self._segments.get(fingerprint)
        if held is not None:
            self.stats["publish_hits"] += 1
            return held[1]
        arrays = matrix_arrays(matrix)
        if arrays is None:
            return None
        return self._publish(fingerprint, matrix.format_name, matrix.shape, arrays)

    def publish_dense(
        self, dense, *, token: str | None = None
    ) -> SegmentDescriptor | None:
        """Ship a dense operand; ``token`` defaults to a content hash.
        Returns ``None`` under shared-memory exhaustion (pickle fallback).

        The content-hash default makes the dense plane content-addressed:
        byte-identical operands published by *different* callers (e.g.
        two tenants submitting the same B) share one segment.  Such
        cross-publisher shares are counted as ``dense_dedup_hits`` on top
        of the plain ``publish_hits``.
        """
        a = native_contiguous(np.asarray(dense))
        content_addressed = token is None
        if token is None:
            token = dense_token(a)
        held = self._segments.get(token)
        if held is not None:
            self.stats["publish_hits"] += 1
            if content_addressed:
                self.stats["dense_dedup_hits"] += 1
            return held[1]
        return self._publish(token, "dense", a.shape, {"dense": a})

    # ------------------------------------------------------------ lifecycle
    def _unlink(self, token: str) -> None:
        """Unlink ``token``'s segment and its lease; the source copy stays."""
        shm, descriptor = self._segments.pop(token)
        self._remove_lease(descriptor.segment)
        try:
            _unlink_segment(shm)
        except OSError:  # already swept by another process
            pass
        self.stats["unlinked"] += 1

    def close(self) -> None:
        """Unlink every owned segment."""
        for token in list(self._segments):
            self._unlink(token)
        self._sources.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    @property
    def descriptors(self) -> dict:
        """token -> live :class:`SegmentDescriptor`."""
        return {token: held[1] for token, held in self._segments.items()}

    # ------------------------------------------------------------ integrity
    def verify_segment(self, token: str) -> list[str]:
        """Owner-side integrity check of one live segment.

        Re-reads the segment's bytes against the checksums stamped at
        publish time; returns the names of arrays that fail (empty =
        healthy).  This is the selfcheck path — workers get the same
        check implicitly on first attach.
        """
        held = self._segments.get(token)
        if held is None:
            raise KeyError(f"no segment published for {token!r}")
        shm, descriptor = held
        arrays = read_arrays(shm.buf, descriptor.arrays)
        bad = verify_arrays(arrays, descriptor.arrays)
        if bad:
            self.stats["corruption_detected"] += 1
        return bad

    def verify_all(self) -> dict[str, list]:
        """token -> corrupt array names, for every *unhealthy* segment."""
        report = {}
        for token in list(self._segments):
            try:
                bad = self.verify_segment(token)
            except KeyError:
                continue  # unlinked concurrently
            if bad:
                report[token] = bad
        return report

    def republish(self, token: str) -> SegmentDescriptor | None:
        """Quarantine ``token``'s segment and reship from the source copy.

        The corruption-recovery path: the old segment is unlinked (any
        worker still holding a read-only view keeps its stale mapping —
        harmless, it is never consulted again) and the operand is
        republished under a *fresh* segment name, so worker-side attach
        memos (keyed by segment name) miss and the retry re-attaches and
        re-verifies.  Returns the new descriptor, or ``None`` if the
        source is gone or shared memory is exhausted.
        """
        source = self._sources.get(token)
        if source is None:
            return None
        kind, shape, arrays = source
        if token in self._segments:
            self._unlink(token)
        descriptor = self._publish(token, kind, shape, arrays)
        if descriptor is not None:
            self.stats["republished"] += 1
        return descriptor

    # --------------------------------------------------------------- leases
    def _lease_path(self, segment: str) -> str:
        return os.path.join(self.lease_dir, f"{segment}.json")

    def _write_lease(self, descriptor: SegmentDescriptor) -> None:
        lease = {
            "segment": descriptor.segment,
            "token": descriptor.token,
            "pid": os.getpid(),
            "bytes": descriptor.total_bytes,
        }
        path = self._lease_path(descriptor.segment)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(lease, fh)
        os.replace(tmp, path)

    def _remove_lease(self, segment: str) -> None:
        try:
            os.unlink(self._lease_path(segment))
        except FileNotFoundError:
            pass

    def sweep_orphans(self) -> int:
        """Reclaim segments whose owning process died without unlinking.

        Scans the lease directory; any lease whose pid is no longer alive
        has its segment unlinked and its lease removed.  Returns the number
        of orphaned segments reclaimed (counted in ``orphans_swept``).

        The scan races benignly with live publishers and with concurrent
        sweeps: a lease that vanishes mid-scan (its owner unlinked the
        segment, or another sweeper got there first), undecodable lease
        JSON, or a structurally wrong lease body (non-dict, non-string
        segment name) is skipped, never raised.  A lease whose owner is
        alive is always left alone — publishers write the lease *after*
        creating the segment, so a sweep can never observe a live
        publisher's segment without its pid-bearing lease.
        """
        swept = 0
        try:
            names = os.listdir(self.lease_dir)
        except FileNotFoundError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.lease_dir, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    lease = json.load(fh)
                pid = int(lease["pid"])
                segment = lease["segment"]
                if not isinstance(segment, str) or not segment:
                    raise ValueError("lease without a segment name")
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if _pid_alive(pid):
                continue
            try:
                shm = _attach_segment(segment)
                _unlink_segment(shm)
                swept += 1
            except OSError:
                pass  # segment already gone; just drop the stale lease
            try:
                os.unlink(path)
            except OSError:
                pass
        self.stats["orphans_swept"] += swept
        return swept


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# -------------------------------------------------------------- attach side
#: Process-local attach memo: segment name -> (SharedMemory, arrays dict).
#: Keeping the SharedMemory object referenced keeps the mapping alive.
_ATTACHED: dict[str, tuple] = {}

#: Process-local rebuilt operands: segment name -> container / ndarray.
_MATERIALIZED: dict[str, object] = {}


def _attached_arrays(descriptor: SegmentDescriptor) -> tuple[dict, bool]:
    """Read-only array views for ``descriptor``; ``True`` if freshly mapped.

    A fresh mapping is verified against the descriptor's publish-time
    checksums before it is memoized (memo hits were verified when first
    mapped).  A mismatch raises a structured
    :class:`~repro.errors.OperandCorruptionError` — never a silent wrong
    result — without memoizing, so a retry against a republished segment
    (fresh name, fresh verification) can succeed.
    """
    held = _ATTACHED.get(descriptor.segment)
    if held is not None:
        return held[1], False
    shm = _attach_segment(descriptor.segment)
    arrays = read_arrays(shm.buf, descriptor.arrays)
    bad = verify_arrays(arrays, descriptor.arrays)
    if bad:
        arrays = None  # drop the views before closing the mapping
        try:
            shm.close()
        except Exception:
            pass
        raise OperandCorruptionError(
            f"segment {descriptor.segment} for operand "
            f"{descriptor.token[:12]} failed its integrity check "
            f"(arrays: {', '.join(bad)})",
            token=descriptor.token,
            segment=descriptor.segment,
            arrays=tuple(bad),
            plane="registry",
        )
    _ATTACHED[descriptor.segment] = (shm, arrays)
    return arrays, True


def attach_matrix(descriptor: SegmentDescriptor) -> tuple[object, bool]:
    """Rebuild the shipped matrix over shared memory, memoized per process.

    Returns ``(matrix, fresh)`` where ``fresh`` is ``True`` on the first
    attach in this process (``False`` = attach hit).  The container's
    arrays are zero-copy read-only views over the mapped segment.
    """
    cached = _MATERIALIZED.get(descriptor.segment)
    if cached is not None:
        return cached, False
    arrays, _ = _attached_arrays(descriptor)
    matrix = matrix_from_arrays(descriptor.kind, descriptor.shape, arrays)
    _MATERIALIZED[descriptor.segment] = matrix
    return matrix, True


def attach_dense(descriptor: SegmentDescriptor) -> tuple[np.ndarray, bool]:
    """Attach a shipped dense operand; returns ``(array, fresh)``."""
    cached = _MATERIALIZED.get(descriptor.segment)
    if cached is not None:
        return cached, False
    arrays, _ = _attached_arrays(descriptor)
    dense = arrays["dense"]
    _MATERIALIZED[descriptor.segment] = dense
    return dense, True


def detach_all() -> None:
    """Drop every process-local attachment (test/shutdown hygiene)."""
    _MATERIALIZED.clear()
    for shm, _ in _ATTACHED.values():
        try:
            shm.close()
        except Exception:
            pass
    _ATTACHED.clear()
