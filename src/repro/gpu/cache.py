"""Set-associative LRU cache model (the GPU's L2 / LLC).

The analytical Table 1 model deliberately ignores caches; the kernels use
this event-driven simulator to *correct* the dense-operand traffic for LLC
reuse on small/medium matrices, and the tests use it to validate the
analytical counts (a cache with zero capacity must reproduce them exactly).

The implementation keeps one small integer array per set (way -> tag) plus
an age matrix, giving exact LRU without per-access Python allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..util import ceil_div


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LRUCache:
    """Physically-indexed set-associative LRU cache.

    ``capacity_bytes`` may be 0, modelling a cache-less memory system (every
    access misses) — handy for validating compulsory-traffic math.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 32, ways: int = 16):
        if capacity_bytes < 0 or line_bytes <= 0 or ways <= 0:
            raise ConfigError("cache geometry must be non-negative/positive")
        n_lines = capacity_bytes // line_bytes
        if capacity_bytes > 0 and n_lines == 0:
            raise ConfigError(
                f"capacity {capacity_bytes} below one {line_bytes}-byte line"
            )
        if n_lines % ways and n_lines > 0:
            raise ConfigError(
                f"{n_lines} lines not divisible by {ways} ways"
            )
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(n_lines // ways, 0)
        self.stats = CacheStats()
        if self.n_sets:
            self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
            self._age = np.zeros((self.n_sets, ways), dtype=np.int64)
            self._clock = 0

    # ------------------------------------------------------------- accesses
    def access_line(self, line_addr: int) -> bool:
        """Touch one cache line by *line* address; return True on hit."""
        self.stats.accesses += 1
        if self.n_sets == 0:
            self.stats.misses += 1
            return False
        s = line_addr % self.n_sets
        tags = self._tags[s]
        self._clock += 1
        hit_ways = np.flatnonzero(tags == line_addr)
        if hit_ways.size:
            self._age[s, hit_ways[0]] = self._clock
            self.stats.hits += 1
            return True
        victim = int(np.argmin(self._age[s]))
        tags[victim] = line_addr
        self._age[s, victim] = self._clock
        self.stats.misses += 1
        return False

    def access_bytes(self, byte_addr: int, n_bytes: int) -> int:
        """Touch a byte range; returns the number of *missing* lines.

        Misses x ``line_bytes`` is the DRAM fill traffic for the range.
        """
        if n_bytes <= 0:
            return 0
        first = byte_addr // self.line_bytes
        last = (byte_addr + n_bytes - 1) // self.line_bytes
        misses = 0
        for line in range(first, last + 1):
            if not self.access_line(line):
                misses += 1
        return misses

    def lines_for(self, n_bytes: int) -> int:
        """How many lines a contiguous ``n_bytes`` range spans (aligned)."""
        return ceil_div(n_bytes, self.line_bytes)

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all contents (stats preserved)."""
        if self.n_sets:
            self._tags.fill(-1)
            self._age.fill(0)
            self._clock = 0


def dense_reuse_fraction(
    working_set_bytes: float, cache_bytes: float
) -> float:
    """Analytic stand-in for cache simulation at sweep scale.

    Fraction of repeat accesses to a ``working_set_bytes`` structure that
    hit in a ``cache_bytes`` LLC, under the usual fully-associative
    approximation: full reuse while the working set fits, proportional
    reuse beyond.
    """
    if working_set_bytes <= 0:
        return 1.0
    if cache_bytes <= 0:
        return 0.0
    return float(min(1.0, cache_bytes / working_set_bytes))
