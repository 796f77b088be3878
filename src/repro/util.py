"""Small shared helpers: array coercion/validation, sizes, RNG plumbing, and
the one durable file rewrite (:func:`atomic_write`).

These helpers centralize the dtype discipline used across the library:

* index arrays are ``int64`` (``INDEX_DTYPE``) — large-matrix safe and what
  NumPy's own sparse tooling converged on;
* value arrays are ``float32`` by default (``VALUE_DTYPE``) to match the
  paper's evaluation ("We use 32-bit floating point datatype"), but every
  container accepts ``float64`` as well;
* *modelled* byte sizes (what the simulated GPU would move) always use
  4-byte indices and 4- or 8-byte values, independent of the host dtypes,
  so the traffic model matches the paper's arithmetic.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Iterable

import numpy as np

from .errors import FormatError

#: Host dtype for index arrays in every container.
INDEX_DTYPE = np.int64
#: Default host dtype for value arrays (matches the paper's FP32 evaluation).
VALUE_DTYPE = np.float32

#: Bytes per index element in the *modelled* memory layout (paper: 4 bytes).
MODEL_INDEX_BYTES = 4
#: Bytes per FP32 value element in the modelled layout.
MODEL_VALUE_BYTES = 4


def as_index_array(a, *, name: str = "index array") -> np.ndarray:
    """Return ``a`` as a contiguous 1-D int64 array, validating integrality.

    Floating-point inputs are accepted only when exactly integral; anything
    else raises :class:`FormatError` naming the offending argument.
    """
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise FormatError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if arr.size and not np.all(arr == np.floor(arr)):
            raise FormatError(f"{name} contains non-integral values")
        arr = arr.astype(INDEX_DTYPE)
    elif arr.dtype.kind in "iu":
        arr = arr.astype(INDEX_DTYPE, copy=False)
    else:
        raise FormatError(f"{name} has non-numeric dtype {arr.dtype}")
    return np.ascontiguousarray(arr)


def as_value_array(a, *, dtype=None, name: str = "value array") -> np.ndarray:
    """Return ``a`` as a contiguous 1-D floating array.

    ``dtype`` defaults to the input's own float dtype (or ``VALUE_DTYPE`` for
    integer inputs); only float32/float64 are permitted so modelled byte
    counts stay meaningful.
    """
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise FormatError(f"{name} must be 1-D, got shape {arr.shape}")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else VALUE_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise FormatError(f"{name} dtype must be float32 or float64, got {dtype}")
    return np.ascontiguousarray(arr.astype(dtype, copy=False))


def check_shape(shape) -> tuple[int, int]:
    """Validate and normalize a 2-D matrix shape to a tuple of ints."""
    try:
        n_rows, n_cols = shape
    except (TypeError, ValueError) as exc:
        raise FormatError(f"shape must be a 2-tuple, got {shape!r}") from exc
    n_rows, n_cols = int(n_rows), int(n_cols)
    if n_rows < 0 or n_cols < 0:
        raise FormatError(f"shape must be non-negative, got {shape!r}")
    return n_rows, n_cols


def check_monotone(ptr: np.ndarray, *, name: str = "pointer array") -> None:
    """Raise :class:`FormatError` unless ``ptr`` is non-decreasing from 0."""
    if ptr.size == 0 or ptr[0] != 0:
        raise FormatError(f"{name} must start at 0")
    if ptr.size > 1 and np.any(np.diff(ptr) < 0):
        raise FormatError(f"{name} must be non-decreasing")


def check_in_range(idx: np.ndarray, upper: int, *, name: str = "index array") -> None:
    """Raise :class:`FormatError` unless every index lies in ``[0, upper)``."""
    if idx.size and (idx.min() < 0 or idx.max() >= upper):
        raise FormatError(f"{name} out of range [0, {upper})")


def model_value_bytes(dtype) -> int:
    """Modelled bytes per value element: 4 for float32, 8 for float64."""
    return int(np.dtype(dtype).itemsize)


def rng_from(seed) -> np.random.Generator:
    """Normalize ``seed`` (None, int, or Generator) to a ``Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-int(a) // int(b))


def human_bytes(n: float) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``'1.50 MiB'``."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def to_plain(obj):
    """Recursively coerce numpy scalars/arrays (and tuples) to plain Python.

    The canonical-JSON path (run records, journal lines) must not depend
    on which numeric library produced a value, so everything JSON touches
    funnels through here first.
    """
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_plain(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    """Byte-reproducible JSON: plain types, sorted keys, fixed indent."""
    import json

    return json.dumps(to_plain(obj), sort_keys=True, indent=2)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (speedup aggregation in Fig. 16)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


#: the process umask, read once at import (reading it means setting it)
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text``: temp file, fsync, rename, directory fsync.

    A crash leaves the old file or the new one, never a torn mix; a
    failure raises ``OSError`` (the directory fsync is best-effort).  The
    file gets the mode ``open(path, "w")`` would create (``0o666`` less
    the umask), not the temp file's owner-only ``0o600``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    with contextlib.suppress(OSError):
        dirfd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
