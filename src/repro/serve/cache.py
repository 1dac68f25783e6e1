"""Result cache keyed on (matrix version, input hash).

A served SpMV is a pure function of the matrix *version* and the
request's right-hand side, so identical requests against an unchanged
model can be answered without any launch.  Keys embed the version, so a
model update never serves stale results — old-version entries become
unreachable and age out of the LRU (or are dropped eagerly by
:meth:`ResultCache.invalidate_before`).

The input hash is sha256 over the raw RHS bytes plus dtype and shape:
two float arrays that compare equal but differ in dtype (or in a single
bit) hash differently — cache correctness never depends on tolerance.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

CacheKey = Tuple[int, str]  # (matrix version, input digest)


def input_digest(x: np.ndarray) -> str:
    """sha256 over the RHS bytes, dtype and shape."""
    h = hashlib.sha256()
    dtype = x.dtype
    # A native numeric dtype's name is its str() without the call
    # chain; anything else (byte-swapped, strings) keeps str().
    numeric = dtype.isnative and dtype.kind in "biufc"
    h.update((dtype.name if numeric else str(dtype)).encode())
    h.update(str(x.shape).encode())
    # hashlib reads the contiguous buffer in place: no bytes copy.
    h.update(np.ascontiguousarray(x))
    return h.hexdigest()


@dataclass
class CacheStats:
    """Lookup/insert counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Bounded LRU of served results keyed on (version, input hash)."""

    capacity: int = 256
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, version: int, x: np.ndarray) -> CacheKey:
        return (version, input_digest(x))

    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """The cached result, or None; counts the lookup either way."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: CacheKey, result: np.ndarray) -> None:
        """Insert a served result (the cache owns a private copy)."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = np.ascontiguousarray(result).copy()
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_before(self, version: int) -> int:
        """Eagerly drop entries older than ``version``; returns count.

        Optional — version-embedded keys already make stale entries
        unreachable — but a model trained continuously would otherwise
        carry dead entries until LRU pressure clears them.
        """
        dead = [k for k in self._entries if k[0] < version]
        for k in dead:
            del self._entries[k]
        self.stats.invalidated += len(dead)
        return len(dead)
