"""Matrix Market I/O (coordinate format) without external dependencies.

The paper's dataset (SuiteSparse) ships as Matrix Market files; Section 4.1
notes that deserializing the COO-based format to CSC costs the same as to
CSR.  This module reads/writes the ``coordinate`` variant with ``real``,
``integer`` or ``pattern`` fields and ``general``/``symmetric``/
``skew-symmetric`` symmetries — enough to ingest real collection files.
Pattern matrices receive deterministic pseudo-random values, matching the
paper's "assign random values if a matrix does not have values".
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from ..errors import FormatError
from ..util import VALUE_DTYPE, rng_from
from .coo import COOMatrix

_HEADER = "%%MatrixMarket"
_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}
#: largest dimension whose indices fit the int64 index arrays
_MAX_DIM = np.iinfo(np.int64).max


def read_matrix_market(source, *, pattern_seed: int = 0) -> COOMatrix:
    """Parse a Matrix Market coordinate file into a :class:`COOMatrix`.

    ``source`` may be a path, a string of file contents, or a text file
    object.  Symmetric entries are mirrored; ``pattern`` matrices get
    uniform(0.1, 1] values drawn from ``pattern_seed``.
    """
    try:
        text = _read_text(source)
    except UnicodeDecodeError as exc:
        raise FormatError(f"Matrix Market input is not UTF-8: {exc.reason}") from None
    lines = iter(text.splitlines())
    try:
        header = next(lines)
    except StopIteration:
        raise FormatError("empty Matrix Market input") from None
    parts = header.strip().split()
    if len(parts) != 5 or parts[0] != _HEADER:
        raise FormatError(f"bad Matrix Market header: {header!r}")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise FormatError(f"only coordinate matrices supported, got {obj}/{fmt}")
    if field not in _SUPPORTED_FIELDS:
        raise FormatError(f"unsupported field {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise FormatError(f"unsupported symmetry {symmetry!r}")

    entries = [
        stripped for stripped in (line.strip() for line in lines)
        if stripped and not stripped.startswith("%")
    ]
    if not entries:
        raise FormatError("missing size line")
    size_line = entries.pop(0)
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in size_line.split())
    except ValueError as exc:
        raise FormatError(f"bad size line: {size_line!r}") from exc
    if min(n_rows, n_cols, nnz) < 0 or max(n_rows, n_cols) > _MAX_DIM:
        raise FormatError(f"bad size line: {size_line!r}")
    # The declared nnz is checked against the entries actually present
    # before anything is allocated for it.
    if len(entries) > nnz:
        raise FormatError("more entries than declared nnz")
    if len(entries) < nnz:
        raise FormatError(f"declared nnz={nnz} but found {len(entries)} entries")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.zeros(nnz, dtype=np.float64)  # pattern values filled below
    for i, entry in enumerate(entries):
        toks = entry.split()
        try:
            r, c = int(toks[0]), int(toks[1])
            if field != "pattern":
                vals[i] = float(toks[2])
        except (IndexError, ValueError):
            raise FormatError(f"bad {field} entry: {entry!r}") from None
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise FormatError(f"entry out of range: {entry!r}")
        rows[i] = r - 1  # Matrix Market is 1-indexed
        cols[i] = c - 1

    if field == "pattern":
        rng = rng_from(pattern_seed)
        vals = rng.uniform(0.1, 1.0, size=nnz)

    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols = (
            np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        )
        vals = np.concatenate([vals, sign * vals[off]])

    return COOMatrix((n_rows, n_cols), rows, cols, vals.astype(VALUE_DTYPE))


def write_matrix_market(matrix, destination) -> None:
    """Write any container to a Matrix Market coordinate/real/general file."""
    rows, cols, vals = matrix.to_coo_arrays()
    buf = io.StringIO()
    buf.write(f"{_HEADER} matrix coordinate real general\n")
    buf.write("% written by repro.formats.mmio\n")
    buf.write(f"{matrix.n_rows} {matrix.n_cols} {len(vals)}\n")
    for r, c, v in zip(rows, cols, vals):
        buf.write(f"{int(r) + 1} {int(c) + 1} {float(v):.9g}\n")
    text = buf.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, (str, Path)):
        # A multi-line string is file *contents*; a short one-liner is a path.
        if isinstance(source, str) and "\n" in source:
            return source
        if not str(source):
            raise FormatError("empty Matrix Market input")
        p = Path(source)
        if p.is_file():
            return p.read_text(encoding="utf-8")
        if isinstance(source, str) and source.lstrip().startswith(_HEADER):
            return source
        raise FormatError(f"no such file: {source!r}")
    raise FormatError(f"unsupported source type {type(source).__name__}")
