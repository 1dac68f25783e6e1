"""Logical regions: the distributed data structures of the runtime.

A region is a 1-D or 2-D array with a dtype.  The *numerical truth* of a
region lives in a single NumPy array (kernels compute on views of it, so
results are exact); the *distributed placement* of a region — which
memories hold which sub-rectangles, and when they became valid — is
tracked separately by the runtime's coherence layer.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro.geometry import Rect

_uid = itertools.count()


class Region:
    """A logical region backed by a NumPy array."""

    __slots__ = (
        "uid", "shape", "dtype", "data", "name", "_runtime",
        "_rect", "_nbytes", "__weakref__",
    )

    def __init__(
        self,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        data: Optional[np.ndarray] = None,
        name: str = "",
        runtime=None,
    ):
        if len(shape) not in (1, 2):
            raise ValueError(f"regions are 1-D or 2-D, got shape {shape}")
        self.uid = next(_uid)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        if data is None:
            data = np.zeros(self.shape, dtype=self.dtype)
        else:
            data = np.asarray(data, dtype=self.dtype)
            if data.shape != self.shape:
                raise ValueError(
                    f"data shape {data.shape} does not match region shape {self.shape}"
                )
            if not data.flags.writeable or not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.name = name or f"region{self.uid}"
        self._runtime = runtime
        # Memoized full-index rect (shape is immutable after init).
        self._rect = Rect.from_shape(self.shape)
        self._nbytes = None

    @property
    def ndim(self) -> int:
        """Number of dimensions (1 or 2)."""
        return len(self.shape)

    @property
    def rect(self) -> Rect:
        """The full index rect."""
        return self._rect

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Logical size in bytes (memoized; shape is immutable)."""
        nb = self._nbytes
        if nb is None:
            nb = self._nbytes = (
                int(np.prod(self.shape, dtype=np.int64)) * self.itemsize
            )
        return nb

    def destroy(self) -> None:
        """Release physical instances; called when the frontend drops us."""
        if self._runtime is not None:
            self._runtime.free_region(self)
            self._runtime = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown ordering
        try:
            self.destroy()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.name}, shape={self.shape}, dtype={self.dtype})"
