"""Abstract base for every sparse-matrix container in :mod:`repro.formats`.

A container owns immutable-by-convention NumPy arrays and knows three things
the rest of the library builds on:

* its **logical contents** (``to_dense``, ``to_coo_arrays``) — used by the
  correctness oracle in tests and by format conversions;
* its **modelled memory footprint** (``metadata_bytes``/``value_bytes``/
  ``footprint_bytes``) — what the simulated GPU would read from DRAM, using
  the paper's 4-byte indices and 4/8-byte values regardless of host dtypes;
* its **structural invariants** (``validate``) — property-tested throughout.
"""

from __future__ import annotations

import abc

import numpy as np

from ..util import MODEL_INDEX_BYTES, model_value_bytes

#: Instance attribute holding a container's memo (see :func:`container_memo`).
MEMO_ATTR = "_repro_memo"


def container_memo(container) -> dict:
    """The dict of values memoized on ``container`` (created on first use).

    Kernels keep what they derive from a container's arrays alone here —
    the prepared operand, unique-index counts, per-``(k, config)``
    accounting — so repeated runs over a resident container skip that
    work.  Containers are not mutated after construction, and the memo
    carries the shape/nnz it was created for: a container whose arrays
    were replaced wholesale starts an empty memo, as the fingerprint memo
    does.  Callers that edit values in place must drop it with
    :func:`drop_container_memo`.  :meth:`SparseMatrix.__getstate__`
    leaves it out, so it is never pickled, spilled or shipped to workers.
    """
    guard = (container.shape, container.nnz)
    held = getattr(container, MEMO_ATTR, None)
    if held is not None and held[0] == guard:
        return held[1]
    memo: dict = {}
    setattr(container, MEMO_ATTR, (guard, memo))
    return memo


def memoized(container, key, compute):
    """``compute()``, kept in ``container``'s memo under ``key``.

    Only for values derived from the container's arrays (and whatever
    ``key`` names); see :func:`container_memo`.
    """
    memo = container_memo(container)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def drop_container_memo(container) -> None:
    """Forget everything memoized on ``container`` (after an in-place edit)."""
    try:
        delattr(container, MEMO_ATTR)
    except AttributeError:
        pass


class SparseMatrix(abc.ABC):
    """Common interface for COO/CSR/CSC/DCSR and tiled containers."""

    #: short lowercase format tag, e.g. ``"csr"`` — set by subclasses.
    format_name: str = "abstract"

    shape: tuple[int, int]

    # ------------------------------------------------------------------ core
    @property
    def n_rows(self) -> int:
        """Number of matrix rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of matrix columns."""
        return self.shape[1]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored entries."""

    @property
    def density(self) -> float:
        """``nnz / (n_rows * n_cols)``; 0.0 for degenerate shapes."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    @abc.abstractmethod
    def validate(self) -> None:
        """Raise :class:`repro.errors.FormatError` on any broken invariant."""

    # ------------------------------------------------------------ conversion
    @abc.abstractmethod
    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` triplets in this format's order."""

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense matrix (test/oracle use only).

        Duplicate coordinates accumulate, matching COO summation semantics.
        """
        rows, cols, vals = self.to_coo_arrays()
        dense = np.zeros(self.shape, dtype=vals.dtype if vals.size else np.float32)
        np.add.at(dense, (rows, cols), vals)
        return dense

    # ------------------------------------------------------------- footprint
    @property
    @abc.abstractmethod
    def value_dtype(self) -> np.dtype:
        """Dtype of the stored values (float32 or float64)."""

    @abc.abstractmethod
    def metadata_arrays(self) -> dict[str, np.ndarray]:
        """Name → index array for every metadata vector in the format."""

    def metadata_bytes(self) -> int:
        """Modelled bytes of all metadata vectors (4 B per index element)."""
        return sum(a.size for a in self.metadata_arrays().values()) * MODEL_INDEX_BYTES

    def value_bytes(self) -> int:
        """Modelled bytes of the value payload."""
        return self.nnz * model_value_bytes(self.value_dtype)

    def footprint_bytes(self) -> int:
        """Modelled total footprint: metadata plus values."""
        return self.metadata_bytes() + self.value_bytes()

    # ----------------------------------------------------------------- dunder
    def __getstate__(self) -> dict:
        """Pickle and copy state: everything but the memo."""
        state = self.__dict__.copy()
        state.pop(MEMO_ATTR, None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} shape={self.shape} nnz={self.nnz} "
            f"density={self.density:.3g} footprint={self.footprint_bytes()}B>"
        )
