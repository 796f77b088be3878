"""The operand plane: zero-copy shared operands + a persistent format store.

Two halves, one goal — pay for data transformation once (the paper's
amortization argument) no matter how many processes or process lifetimes
consume the result:

- :class:`SharedOperandRegistry` ships operand arrays into
  ``multiprocessing.shared_memory`` segments described by picklable
  :class:`SegmentDescriptor` recipes; workers :func:`attach_matrix` /
  :func:`attach_dense` zero-copy views instead of unpickling copies.
  The batch pool and the resident service publish through one handle
  builder and heal corrupted segments through one repair seam
  (:func:`repro.runtime.parallel.make_handle` and
  :func:`~repro.runtime.parallel.heal`).
- :class:`PersistentFormatStore` spills plan-cache entries (plans, format
  conversions, engine artifacts, seeded dense operands) to mmap-backed
  ``.npy`` segments with an fsynced manifest, so a fresh process
  warm-starts with zero conversions.

See ``docs/STORAGE.md`` for the layout, lifecycle, and warm-start
contract.
"""

from __future__ import annotations

from .layout import (
    ADAPTERS,
    ArraySpec,
    SegmentDescriptor,
    array_crc32,
    verify_arrays,
)
from .persist import MANIFEST_VERSION, PersistentFormatStore, encode_key
from .registry import (
    SharedOperandRegistry,
    attach_dense,
    attach_matrix,
    default_lease_dir,
    detach_all,
    pickled_nbytes,
)

__all__ = [
    "ADAPTERS",
    "ArraySpec",
    "MANIFEST_VERSION",
    "PersistentFormatStore",
    "SegmentDescriptor",
    "SharedOperandRegistry",
    "array_crc32",
    "attach_dense",
    "attach_matrix",
    "verify_arrays",
    "default_lease_dir",
    "detach_all",
    "encode_key",
    "pickled_nbytes",
]
