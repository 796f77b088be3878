"""Deterministic host-layer fault injectors: corruption and exhaustion.

This module injects the host-layer faults the integrity plane must
survive — damaged shared-memory operand segments, torn or truncated
spill files, and a filesystem that starts failing writes — all
deterministic (no randomness) so chaos tests and ``tools/chaos_smoke.py``
reproduce bit-for-bit.

Every injector damages *real* state through the same interfaces the
production code uses, so detection exercises the production read path:

* :func:`corrupt_segment` / :func:`corrupt_item_operands` flip bytes in a
  live ``multiprocessing.shared_memory`` segment — caught by the
  attach-time CRC pass in :mod:`repro.store.registry`;
* :func:`flip_byte` / :func:`truncate_file` damage a spilled ``.npy`` or
  pickle on disk — caught by the load-time CRC pass (or torn-read
  classification) in :mod:`repro.store.persist`;
* :func:`failing_fsync` makes ``os.fsync`` raise ``ENOSPC`` from the Nth
  call on — driving the journal/intent/persist planes into their loud
  degraded modes.

The supervisor's ``corrupt`` chaos kind
(:data:`repro.runtime.supervisor.CHAOS_CORRUPT`) calls
:func:`corrupt_item_operands` inside the worker immediately before
executing the item.
"""

from __future__ import annotations

import contextlib
import errno
import os

#: XOR mask applied to damaged bytes.  Any nonzero mask defeats CRC32
#: (which detects all single-byte errors); 0xFF is easy to spot in dumps.
FLIP_MASK = 0xFF


# ------------------------------------------------------------ shared memory
def corrupt_segment(segment: str, offset: int = 0) -> None:
    """Flip one byte of a live shared-memory segment, in place.

    Attaches without resource-tracker adoption (the same discipline as
    worker attaches), flips ``buf[offset]``, and drops the mapping — the
    publisher and every attached worker now see the damaged byte.
    """
    from ..store.registry import _attach_segment

    shm = _attach_segment(segment)
    try:
        shm.buf[offset] ^= FLIP_MASK
    finally:
        shm.close()


def corrupt_item_operands(item) -> int:
    """Damage every shared-memory operand a batch item references.

    ``item`` is a :class:`~repro.runtime.parallel.PlanHandle` or a
    :class:`~repro.runtime.fusion.FusedPlanHandle` (whose members are
    walked); each distinct segment gets one byte flipped at its first
    array's offset.  Returns the number of segments damaged (0 when the
    item shipped no shared-memory operands — e.g. pickled fallbacks).
    """
    handles = getattr(item, "handles", None) or (item,)
    damaged: set[str] = set()
    for handle in handles:
        for descriptor in (
            getattr(handle, "operand", None),
            getattr(handle, "dense_operand", None),
        ):
            if descriptor is None or descriptor.segment in damaged:
                continue
            corrupt_segment(descriptor.segment, descriptor.arrays[0].offset)
            damaged.add(descriptor.segment)
    return len(damaged)


# ------------------------------------------------------------------- files
def flip_byte(path: str, offset: int = 0) -> None:
    """Flip one byte of a file in place (bit rot on a spilled operand)."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        if not original:
            raise ValueError(f"{path} has no byte at offset {offset}")
        fh.seek(offset)
        fh.write(bytes([original[0] ^ FLIP_MASK]))


def truncate_file(path: str, keep: int | None = None) -> int:
    """Cut a file short (a torn write caught mid-flight by a crash).

    ``keep`` is the byte length to retain (default: half the file).
    Returns the number of bytes removed.
    """
    size = os.path.getsize(path)
    keep = size // 2 if keep is None else int(keep)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return size - keep


# -------------------------------------------------------------- filesystem
@contextlib.contextmanager
def failing_fsync(fail_from: int = 0, error: int = errno.ENOSPC):
    """``os.fsync`` raises ``OSError(error)`` from call ``fail_from`` on.

    Deterministic disk-exhaustion model: calls ``0..fail_from-1`` succeed
    normally, every later call raises — so a test can let a journal
    append a few durable lines and then watch the plane degrade.  Yields
    a dict whose ``"calls"`` entry counts fsyncs observed.  Always
    restores the real ``os.fsync`` on exit.
    """
    state = {"calls": 0}
    real_fsync = os.fsync

    def fake_fsync(fd):
        n = state["calls"]
        state["calls"] += 1
        if n >= fail_from:
            raise OSError(error, os.strerror(error))
        return real_fsync(fd)

    os.fsync = fake_fsync
    try:
        yield state
    finally:
        os.fsync = real_fsync
