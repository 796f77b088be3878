"""Segment layout: how operand arrays pack into one shared-memory block.

The operand plane ships a sparse matrix (or a dense operand) to worker
processes as *one* shared-memory segment holding every backing array
back-to-back, 64-byte aligned, described by a picklable
:class:`SegmentDescriptor`.  The descriptor is all that crosses the
process boundary — a few hundred bytes instead of the operand itself —
and the receiving side reconstructs zero-copy ndarray views over the
mapped buffer (see :mod:`repro.store.registry`).

Formats register an *adapter*: a pair of functions mapping a container to
an ordered ``{name: ndarray}`` dict and back.  COO, CSR, CSC, and DCSR —
everything the planner ships today — are covered; containers without an
adapter fall back to pickling (counted separately as
``store.bytes_pickled`` so the fallback is visible in telemetry).

The same ``(name, dtype, shape)`` array specs describe the on-disk
``.npy`` layout of :class:`repro.store.persist.PersistentFormatStore`,
so shared-memory and persistent representations stay interchangeable.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

#: Segment packing alignment.  64 bytes keeps every array slice on a
#: cache-line (and AVX-512 lane) boundary, mirroring the paper's
#: DRAM-row-aligned layout argument for the transformation unit.
ALIGNMENT = 64


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next :data:`ALIGNMENT` boundary."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def native_contiguous(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a C-contiguous, native-endian array (copy only if needed)."""
    a = np.ascontiguousarray(arr)
    if a.dtype.byteorder not in ("=", "|") and a.dtype != a.dtype.newbyteorder("="):
        a = a.astype(a.dtype.newbyteorder("="))
    return a


def array_crc32(arr: np.ndarray) -> int:
    """CRC32 of an array's native-contiguous bytes (the integrity stamp).

    Applied per backing array at publish/spill time and re-checked on
    first attach/reload.
    Computed over the raw buffer (no copy for contiguous arrays), so
    verification cost is one linear pass.
    """
    a = native_contiguous(np.asarray(arr))
    return zlib.crc32(a.data if a.flags.c_contiguous else a.tobytes()) & 0xFFFFFFFF


def dense_token(dense) -> str:
    """Content hash of a dense operand: SHA-256 over dtype, shape and bytes.

    The operand plane's content address for dense operands: the
    registry's default ``publish_dense`` token, and the key coalescing
    dedups a fused window's B operands by.  Byte-identical operands get
    one token whether or not they are the same object.
    """
    a = native_contiguous(np.asarray(dense))
    h = hashlib.sha256()
    h.update(f"dense:{a.dtype.str}:{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ArraySpec:
    """One array's slot inside a segment: dtype, shape, byte extent.

    ``crc32`` is the integrity stamp computed at publish time (``None``
    on descriptors from before checksumming existed; those attach
    unverified rather than failing).
    """

    name: str
    dtype: str
    shape: tuple
    offset: int
    nbytes: int
    crc32: int | None = None


@dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable recipe for attaching one operand from shared memory.

    ``segment`` is the ``multiprocessing.shared_memory`` block name;
    ``kind`` is a registered format name (``coo``/``csr``/...) or
    ``"dense"``; ``token`` is the operand identity key (the matrix
    fingerprint, or a content token for dense operands).
    """

    segment: str
    token: str
    kind: str
    shape: tuple
    arrays: tuple
    total_bytes: int


# ---------------------------------------------------------------- adapters
def _coo_arrays(m):
    return {"rows": m.rows, "cols": m.cols, "values": m.values}


def _coo_build(shape, a):
    from ..formats.coo import COOMatrix

    return COOMatrix(shape, a["rows"], a["cols"], a["values"])


def _csr_arrays(m):
    return {"row_ptr": m.row_ptr, "col_idx": m.col_idx, "values": m.values}


def _csr_build(shape, a):
    from ..formats.csr import CSRMatrix

    return CSRMatrix(shape, a["row_ptr"], a["col_idx"], a["values"])


def _csc_arrays(m):
    return {"col_ptr": m.col_ptr, "row_idx": m.row_idx, "values": m.values}


def _csc_build(shape, a):
    from ..formats.csc import CSCMatrix

    return CSCMatrix(shape, a["col_ptr"], a["row_idx"], a["values"])


def _dcsr_arrays(m):
    return {
        "row_idx": m.row_idx,
        "row_ptr": m.row_ptr,
        "col_idx": m.col_idx,
        "values": m.values,
    }


def _dcsr_build(shape, a):
    from ..formats.dcsr import DCSRMatrix

    return DCSRMatrix(shape, a["row_idx"], a["row_ptr"], a["col_idx"], a["values"])


#: format name -> (container -> ordered array dict, (shape, arrays) -> container)
ADAPTERS = {
    "coo": (_coo_arrays, _coo_build),
    "csr": (_csr_arrays, _csr_build),
    "csc": (_csc_arrays, _csc_build),
    "dcsr": (_dcsr_arrays, _dcsr_build),
}


def matrix_arrays(matrix) -> dict | None:
    """The ordered backing arrays of ``matrix``, or ``None`` if no adapter."""
    adapter = ADAPTERS.get(getattr(matrix, "format_name", None))
    if adapter is None:
        return None
    return adapter[0](matrix)


def matrix_from_arrays(kind: str, shape, arrays: dict):
    """Rebuild a container of format ``kind`` from its backing arrays."""
    return ADAPTERS[kind][1](tuple(shape), arrays)


# ----------------------------------------------------------------- packing
def pack_specs(arrays: dict) -> tuple[tuple, int]:
    """Lay out ``arrays`` back-to-back; returns ``(specs, total_bytes)``."""
    specs = []
    offset = 0
    for name, arr in arrays.items():
        a = native_contiguous(np.asarray(arr))
        specs.append(
            ArraySpec(
                name=name,
                dtype=a.dtype.str,
                shape=tuple(a.shape),
                offset=offset,
                nbytes=a.nbytes,
                crc32=array_crc32(a),
            )
        )
        offset = _aligned(offset + a.nbytes)
    return tuple(specs), max(offset, 1)


def write_arrays(buf, specs: tuple, arrays: dict) -> None:
    """Copy each array into its slot of ``buf`` (a writable buffer)."""
    for spec in specs:
        src = native_contiguous(np.asarray(arrays[spec.name]))
        dst = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset)
        dst[...] = src


def verify_arrays(arrays: dict, specs: tuple) -> list[str]:
    """Names of arrays whose bytes disagree with their spec's checksum.

    Specs without a stamp (``crc32 is None``) are skipped — pre-checksum
    descriptors stay attachable.  An empty list means every stamped array
    verified.
    """
    bad = []
    for spec in specs:
        if spec.crc32 is None:
            continue
        if array_crc32(arrays[spec.name]) != spec.crc32:
            bad.append(spec.name)
    return bad


def read_arrays(buf, specs: tuple, *, writeable: bool = False) -> dict:
    """Zero-copy ndarray views over ``buf`` for each spec, read-only by default."""
    out = {}
    for spec in specs:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset)
        view.flags.writeable = writeable
        out[spec.name] = view
    return out
