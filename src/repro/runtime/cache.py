"""Plan caching keyed by matrix fingerprint × dense width × GPU config.

Repeated runs over the same matrix (serving the same model, sweeping k,
CLI batch mode) should pay for planning, format conversion, and engine
placement once.  A :class:`PlanCache` entry bundles
the immutable :class:`~repro.runtime.plan.SpmmPlan` with the
:class:`~repro.formats.convert.FormatStore` holding every container and
engine conversion already materialized for that matrix, so a cache hit
re-executes the kernel without re-deriving anything — bit-identical run
records at a fraction of the cost.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..formats.base import drop_container_memo
from ..formats.convert import FormatStore
from ..gpu.config import GPUConfig
from .plan import Capabilities, SpmmPlan, SpmmRequest


def _canonical_fingerprint_array(arr) -> np.ndarray:
    """``arr`` normalized for hashing: contiguous, native-endian.

    Byte layout — not memory layout — is the identity, so a sliced,
    transposed, or big-endian view of the same triplets hashes the same
    as its plain contiguous form (property-tested in
    ``tests/runtime/test_fingerprint.py``).  This is what makes persisted
    store keys portable across machines.
    """
    a = np.ascontiguousarray(arr)
    if a.dtype.byteorder not in ("=", "|"):
        native = a.dtype.newbyteorder("=")
        if native != a.dtype:
            a = a.astype(native)
    return a


def matrix_fingerprint(matrix) -> str:
    """Content hash of a sparse matrix: shape, nnz, and the COO triplets.

    Stable across container formats describing the same logical matrix in
    the same triplet order; cached on the container after the first call.
    The memo carries the shape/nnz it was computed for and is ignored when
    they no longer match, so the common mutation (replacing the triplet
    arrays wholesale) cannot leak a stale digest — callers that mutate
    values in place must call :func:`invalidate_fingerprint` themselves.
    """
    shape = (matrix.n_rows, matrix.n_cols)
    nnz = matrix.nnz
    cached = getattr(matrix, "_repro_fingerprint", None)
    if cached is not None:
        digest, memo_shape, memo_nnz = cached
        if memo_shape == shape and memo_nnz == nnz:
            return digest
    rows, cols, vals = matrix.to_coo_arrays()
    h = hashlib.sha256()
    h.update(f"{matrix.n_rows}x{matrix.n_cols}:{nnz}".encode())
    for arr in (rows, cols, vals):
        a = _canonical_fingerprint_array(arr)
        h.update(a.dtype.name.encode())
        h.update(a.tobytes())
    digest = h.hexdigest()
    seed_fingerprint(matrix, digest)
    return digest


def seed_fingerprint(matrix, digest: str) -> None:
    """Install a known fingerprint memo (skips rehashing on attach/reload)."""
    try:
        matrix._repro_fingerprint = (digest, (matrix.n_rows, matrix.n_cols), matrix.nnz)
    except AttributeError:  # __slots__ or frozen containers: skip the memo
        pass


def invalidate_fingerprint(matrix) -> None:
    """Drop the fingerprint memo after an in-place mutation.

    The memo's shape/nnz sanity check only catches mutations that change
    either; editing values in place changes neither, so mutating callers
    must invalidate explicitly before the next cache-keyed operation.
    The container's kernel memo (prepared operand, accounting; see
    :func:`~repro.formats.base.container_memo`) goes with it.
    """
    try:
        del matrix._repro_fingerprint
    except AttributeError:
        pass
    drop_container_memo(matrix)


def mirror_cache_gauges(metrics, stats: dict) -> None:
    """Set the ``cache.*`` gauges from :attr:`PlanCache.stats`.

    Plus the disk tier's ``store.*`` ones when it has one.  SLO checks
    read these precomputed gauges instead of recomputing from raw
    hit/miss counters (docs/OBSERVABILITY.md, docs/STORAGE.md).
    """
    for name in ("hit_rate", "entries", "evictions"):
        metrics.gauge(f"cache.{name}").set(stats[name])
    for name in ("disk_hits", "spills", "disk_entries"):
        if name in stats:
            metrics.gauge(f"store.{name}").set(stats[name])


@dataclass
class CacheEntry:
    """One cached planning decision plus its materialized artifacts."""

    plan: SpmmPlan
    store: FormatStore
    hits: int = 0


@dataclass
class PlanCache:
    """LRU cache of :class:`CacheEntry`, bounded by ``max_entries``.

    With ``persist`` set (a
    :class:`~repro.store.persist.PersistentFormatStore`) the cache grows a
    write-through disk tier: inserts spill to disk, RAM misses fall
    through to a disk load, and :meth:`writeback` incrementally persists
    conversions that materialized after the insert.  A disk hit counts as
    a hit (plus ``disk_hits``); it is promoted into RAM only when there is
    room — the promotion path never evicts, so wrappers that account for
    evictions (multi-tenant ownership) see them only from :meth:`insert`.
    """

    max_entries: int = 64
    persist: object | None = None
    _entries: OrderedDict = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    spills: int = 0

    def __post_init__(self):
        if self.max_entries <= 0:
            raise ConfigError("max_entries must be positive")

    @staticmethod
    def key_for(
        request: SpmmRequest,
        config: GPUConfig,
        capabilities: Capabilities,
        ssf_threshold: float,
    ) -> tuple:
        """The full planning context: anything that could change the plan."""
        return (
            matrix_fingerprint(request.matrix),
            request.dense_cols,
            config.name,
            request.tile_width,
            round(float(ssf_threshold), 12),
            capabilities.cache_key(),
        )

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing recency) or ``None``.

        Every call counts toward :attr:`hits` / :attr:`misses`; a hit also
        bumps the entry's own ``hits`` counter.
        """
        entry = self._entries.get(key)
        if entry is None:
            if self.persist is not None:
                loaded = self.persist.get(key)
                if loaded is not None:
                    self.hits += 1
                    self.disk_hits += 1
                    loaded.hits += 1
                    if len(self._entries) < self.max_entries:
                        self._entries[key] = loaded
                    return loaded
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        entry.hits += 1
        return entry

    def insert(self, key: tuple, entry: CacheEntry) -> list:
        """Store ``entry`` under ``key``, evicting LRU entries over the bound.

        Returns the evicted ``(key, entry)`` pairs (usually empty, at most
        one unless ``max_entries`` shrank) so multi-tenant wrappers can
        charge evictions to the owning tenant.  With a persistence tier
        the insert is written through to disk (evicted RAM entries stay
        loadable from there).
        """
        self._entries[key] = entry
        self._entries.move_to_end(key)
        evicted = []
        while len(self._entries) > self.max_entries:
            evicted.append(self._entries.popitem(last=False))
            self.evictions += 1
        if self.persist is not None:
            if self.persist.put(key, entry):
                self.spills += 1
        return evicted

    def writeback(self, key: tuple) -> bool:
        """Persist conversions that accrued on ``key``'s entry since insert.

        Format conversions and engine artifacts materialize lazily during
        execution — *after* the write-through insert — so the runtime
        calls this once per run.  No-op (``False``) without a persistence
        tier, when the key is not resident, or when nothing new accrued.
        """
        if self.persist is None:
            return False
        entry = self._entries.get(key)
        if entry is None:
            return False
        if self.persist.put(key, entry):
            self.spills += 1
            return True
        return False

    def evict(self, key: tuple) -> CacheEntry | None:
        """Drop one entry by key (targeted eviction); counts as an eviction."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.evictions += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction over all lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def stats(self) -> dict:
        """Entry count plus lifetime hit/miss/eviction totals and hit rate.

        The disk-tier keys (``disk_hits``, ``spills``, ``disk_entries``)
        appear only when a persistence tier is configured, keeping the
        stats shape unchanged for RAM-only caches.
        """
        stats = {
            "entries": len(self._entries),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "hit_rate": float(self.hit_rate),
        }
        if self.persist is not None:
            stats["disk_hits"] = int(self.disk_hits)
            stats["spills"] = int(self.spills)
            stats["disk_entries"] = len(self.persist)
        return stats
