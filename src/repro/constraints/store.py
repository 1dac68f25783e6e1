"""Stores: regions plus the key-partition tracking that enables reuse.

A store is the unit both frontend libraries traffic in.  Following
cuNumeric's design, every store remembers the *key partition* — the
latest partition it was written through — and the solver consults key
partitions when choosing how to partition the operands of the next
operation, keeping data where it already lives in the machine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.legion.partition import Partition, Tiling
from repro.legion.region import Region
from repro.legion.runtime import Runtime, get_runtime


class Store:
    """A logical array handle shared by the dense and sparse libraries."""

    __slots__ = ("region", "key_partition", "runtime", "__weakref__")

    def __init__(self, region: Region, runtime: Optional[Runtime] = None):
        self.region = region
        self.key_partition: Optional[Partition] = None
        self.runtime = runtime or get_runtime()

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        shape: Tuple[int, ...],
        dtype,
        data: Optional[np.ndarray] = None,
        name: str = "",
        runtime: Optional[Runtime] = None,
    ) -> "Store":
        """Create a region and wrap it as a store."""
        rt = runtime or get_runtime()
        region = rt.create_region(shape, dtype, data=data, name=name)
        return cls(region, rt)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Region shape."""
        return self.region.shape

    @property
    def dtype(self) -> np.dtype:
        """Region dtype."""
        return self.region.dtype

    @property
    def ndim(self) -> int:
        """Region dimensionality."""
        return self.region.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(np.prod(self.region.shape, dtype=np.int64))

    @property
    def nbytes(self) -> int:
        """Logical size in bytes."""
        return self.region.nbytes

    @property
    def data(self) -> np.ndarray:
        """The exact backing array (numerical truth).

        A host read is a synchronization point: launches pending in the
        runtime's deferred fusion window may still owe writes, so the
        window flushes first.
        """
        self.runtime.flush_window()
        return self.region.data

    # ------------------------------------------------------------------
    def default_tiling(self) -> Tiling:
        """An even tiling over the runtime's processors."""
        return Tiling.create(self.region, self.runtime.num_procs)

    def set_key_partition(self, partition: Partition) -> None:
        """Record the latest written partition."""
        self.key_partition = partition

    def has_matching_key(self, colors: int) -> bool:
        """Whether the key partition fits a color count."""
        return (
            self.key_partition is not None
            and self.key_partition.color_count == colors
        )

    def destroy(self) -> None:
        """Release the backing region's instances."""
        self.region.destroy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Store({self.region.name}, {self.shape}, {self.dtype})"
