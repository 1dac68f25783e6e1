"""Constructor-time validation of host-side sparse inputs.

Every :class:`~repro.core.base.spmatrix` subclass accepts raw host
arrays (``(data, indices, indptr)``, ``(data, (row, col))``,
``(data, offsets)``).  Malformed inputs used to surface much later as
cryptic failures inside kernels or silent corruption (a negative row
index scatters through ``np.add.at`` without complaint).  These helpers
run *before* any canonicalization or int64 casting and raise
``ValueError`` naming the offending field.

The checks are cheap — O(1) shape agreement plus one min/max scan of
each index array — so internal assembly paths call them too.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def as_index_array(arr, field: str) -> np.ndarray:
    """Cast to a 1-D int64 index array, rejecting non-integral input.

    Must see the *original* array: casting first would silently
    truncate float indices like ``[0.5, 1.0]``.
    """
    a = np.asarray(arr)
    if a.ndim != 1:
        raise ValueError(f"{field} must be 1-D, got {a.ndim}-D")
    if a.size == 0:
        # np.asarray([]) defaults to float64; an empty array is fine.
        return a.astype(np.int64)
    if a.dtype.kind in "fc":
        if not np.array_equal(a, np.trunc(a.real)):
            raise ValueError(
                f"{field} must hold integers, got non-integral values "
                f"(dtype {a.dtype})"
            )
        return a.real.astype(np.int64)
    if a.dtype.kind not in "iu":
        raise ValueError(
            f"{field} must be an integer array, got dtype {a.dtype}"
        )
    return a.astype(np.int64)


def check_index_bounds(idx: np.ndarray, bound: int, field: str) -> None:
    """Require every entry of ``idx`` to lie in ``[0, bound)``."""
    if idx.size == 0:
        return
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0:
        raise ValueError(f"{field} contains a negative index ({lo})")
    if hi >= bound:
        raise ValueError(
            f"{field} contains index {hi}, out of range for extent {bound}"
        )


def check_csr_host(
    data, indices, indptr, shape: Optional[Tuple[int, int]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``(data, indices, indptr)`` triple; returns cast arrays."""
    data = np.asarray(data)
    indices = as_index_array(indices, "indices")
    indptr = as_index_array(indptr, "indptr")
    if len(indptr) < 1:
        raise ValueError("indptr must have at least one entry")
    if indptr[0] != 0:
        raise ValueError(f"indptr[0] must be 0, got {int(indptr[0])}")
    if len(indptr) > 1 and (np.diff(indptr) < 0).any():
        raise ValueError("indptr must be non-decreasing")
    if int(indptr[-1]) != len(indices):
        raise ValueError(
            f"nnz mismatch: indptr[-1] is {int(indptr[-1])} but indices "
            f"has {len(indices)} entries"
        )
    if data.ndim != 1 or len(data) != len(indices):
        raise ValueError(
            f"data length ({data.shape}) does not match indices length "
            f"({len(indices)})"
        )
    if shape is not None:
        n, m = int(shape[0]), int(shape[1])
        if len(indptr) != n + 1:
            raise ValueError(
                f"indptr length ({len(indptr)}) must be shape[0]+1 "
                f"({n + 1}) for shape ({n}, {m})"
            )
        check_index_bounds(indices, m, "indices")
    else:
        check_index_bounds(indices, np.iinfo(np.int64).max, "indices")
    return data, indices, indptr


def check_coo_host(
    data, row, col, shape: Optional[Tuple[int, int]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``(data, (row, col))`` triple; returns cast arrays."""
    data = np.asarray(data)
    row = as_index_array(row, "row")
    col = as_index_array(col, "col")
    if len(row) != len(col):
        raise ValueError(
            f"row length ({len(row)}) does not match col length ({len(col)})"
        )
    if data.ndim != 1 or len(data) != len(row):
        raise ValueError(
            f"data length ({data.shape}) does not match row/col length "
            f"({len(row)})"
        )
    if shape is not None:
        check_index_bounds(row, int(shape[0]), "row")
        check_index_bounds(col, int(shape[1]), "col")
    else:
        bound = np.iinfo(np.int64).max
        check_index_bounds(row, bound, "row")
        check_index_bounds(col, bound, "col")
    return data, row, col


def check_dia_host(
    data, offsets, shape: Optional[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a ``(data, offsets)`` pair; returns cast arrays."""
    if shape is None:
        raise ValueError(
            "dia_matrix((data, offsets)) requires an explicit shape"
        )
    data = np.atleast_2d(np.asarray(data))
    offsets = as_index_array(np.atleast_1d(np.asarray(offsets)), "offsets")
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (ndiags, cols), got {data.ndim}-D")
    if data.shape[0] != len(offsets):
        raise ValueError(
            f"data has {data.shape[0]} diagonal row(s) but offsets has "
            f"{len(offsets)} entries"
        )
    if len(np.unique(offsets)) != len(offsets):
        raise ValueError("offsets contains duplicate diagonal offsets")
    return data, offsets


def check_bsr_shape(
    shape: Optional[Tuple[int, int]], blocksize: Tuple[int, int]
) -> None:
    """Require the matrix shape to divide evenly into blocks."""
    if shape is None:
        return
    n, m = int(shape[0]), int(shape[1])
    R, C = int(blocksize[0]), int(blocksize[1])
    if R <= 0 or C <= 0:
        raise ValueError(f"blocksize must be positive, got ({R}, {C})")
    if n % R or m % C:
        raise ValueError(
            f"shape ({n}, {m}) is not divisible by blocksize ({R}, {C})"
        )
