"""A named, seeded corpus standing in for the SuiteSparse Matrix Collection.

The paper evaluates >3,500 collection matrices with 4k–44k rows and divergent
non-zero distributions.  We cannot ship that collection, so :func:`corpus`
enumerates a deterministic grid of synthetic matrices covering the same axes
(density 1e-4…5e-2, all generator families, square/rect/tall shapes) at a
configurable ``scale`` so the full evaluation sweep stays laptop-fast.

Every entry is a :class:`MatrixSpec`; ``spec.build()`` materializes the
matrix (cached per spec instance) and specs hash/compare by name, so a sweep
can be filtered and re-run reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FormatError
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from . import generators as gen


@dataclass
class MatrixSpec:
    """One named synthetic matrix: generator + parameters + seed."""

    name: str
    family: str
    n_rows: int
    n_cols: int
    density: float
    seed: int = 0
    params: dict = field(default_factory=dict)
    _cache: COOMatrix | None = field(default=None, repr=False, compare=False)

    def build(self) -> COOMatrix:
        """Materialize (and cache) the COO matrix."""
        if self._cache is None:
            fn = gen.GENERATORS.get(self.family)
            if fn is None:
                raise FormatError(f"unknown generator family {self.family!r}")
            self._cache = fn(
                self.n_rows, self.n_cols, self.density, seed=self.seed, **self.params
            )
        return self._cache

    def build_csr(self) -> CSRMatrix:
        """Materialize as CSR (the profiling sweeps' working format)."""
        return CSRMatrix.from_coo(self.build())

    def __hash__(self):
        return hash(self.name)


#: (family, extra-params) rows of the corpus grid.
_FAMILIES: list[tuple[str, dict]] = [
    ("uniform", {}),
    ("powerlaw_rows", {"alpha": 1.1}),
    ("powerlaw_rows", {"alpha": 1.6}),
    ("powerlaw_cols", {"alpha": 1.3}),
    ("banded", {}),
    ("block_diagonal", {"block_fill": 0.4}),
    ("clustered", {}),
    ("bipartite", {}),
    ("pruned_dnn", {}),
]

_DENSITIES = (1e-4, 1e-3, 5e-3, 2e-2)


def corpus(
    scale: float = 1.0,
    *,
    densities=_DENSITIES,
    seed: int = 2019,
    include_tall: bool = True,
) -> list[MatrixSpec]:
    """Enumerate the synthetic evaluation corpus.

    ``scale`` multiplies the base 1024-row dimension (scale=1 → 1k–2k rows;
    the paper's 4k–44k range is reached with scale≈4–40, at matching cost).
    Specs are deterministic: the same arguments always yield the same names,
    seeds and matrices.
    """
    if scale <= 0:
        raise FormatError(f"scale must be positive, got {scale}")
    base = max(64, int(1024 * scale))
    shapes = [
        ("sq", base, base),
        ("rect", base, max(64, base // 2)),
    ]
    specs: list[MatrixSpec] = []
    idx = 0
    for fam, params in _FAMILIES:
        for shape_tag, n_rows, n_cols in shapes:
            for d in densities:
                # DNN layers below ~1e-3 density are unrealistic; skip.
                if fam == "pruned_dnn" and d < 1e-3:
                    continue
                tag = "_".join(f"{k}{v}" for k, v in params.items())
                name = f"{fam}{('_' + tag) if tag else ''}_{shape_tag}_d{d:g}"
                specs.append(
                    MatrixSpec(
                        name=name,
                        family=fam,
                        n_rows=n_rows,
                        n_cols=n_cols,
                        density=d,
                        seed=seed + idx,
                        params=dict(params),
                    )
                )
                idx += 1
    if include_tall:
        for d in densities:
            specs.append(
                MatrixSpec(
                    name=f"tall_skinny_d{d:g}",
                    family="tall_skinny",
                    n_rows=8 * base,
                    n_cols=max(64, base // 2),
                    density=d,
                    seed=seed + idx,
                )
            )
            idx += 1
    return specs
