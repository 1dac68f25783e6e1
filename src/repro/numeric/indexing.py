"""Indexing, gather/scatter, transpose and small dense matmul.

Gathers and scatters by integer index arrays ride on the same *image*
dependent-partitioning operation the sparse formats use: the index array
is tiled, and the data operand's partition is the image (by coordinate)
of the tiles — so the communication derived for ``U[idx]`` is exactly
the referenced rows.  Basic slicing is implemented as a copy task
(deviation from NumPy's view semantics; see DESIGN.md).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.constraints import AutoTask
from repro.geometry import Rect
from repro.legion.partition import ExplicitPartition, Tiling
from repro.numeric.array import Scalar, ndarray
from repro.numeric.creation import _make


# ----------------------------------------------------------------------
# Gather / scatter by index arrays
# ----------------------------------------------------------------------
def gather_rows(a: ndarray, idx: ndarray) -> ndarray:
    """``out[i] = a[idx[i]]`` (rows of a 1-D or 2-D array)."""
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("index must be a 1-D integer array")
    rt = a.store.runtime
    out_shape: Tuple[int, ...] = (idx.shape[0],) + a.shape[1:]
    out = _make(out_shape, a.dtype, runtime=rt)

    def kernel(ctx):
        iv = ctx.view("idx")
        if ctx.arrays["a"].ndim == 1:
            ctx.view("out")[...] = ctx.arrays["a"][iv]
        else:
            ctx.view("out")[...] = ctx.arrays["a"][iv, :]

    def cost(ctx):
        vol = ctx.rect("out").volume()
        isz = ctx.arrays["a"].dtype.itemsize
        return float(vol), vol * 2.0 * isz + ctx.rect("idx").volume() * 8.0

    task = AutoTask(rt, "gather_rows", kernel, cost)
    task.set_pointwise("gather_rows")  # idx values lie in a's image rect
    task.add_output("out", out.store)
    task.add_input("idx", idx.store)
    task.add_input("a", a.store)
    task.add_alignment_constraint(out.store, idx.store)
    task.add_image_constraint(idx.store, a.store, kind="coordinate")
    task.execute()
    return out


def scatter_add(a: ndarray, idx: ndarray, values: ndarray) -> None:
    """``a[idx[i]] += values[i]`` (rows; duplicate indices accumulate)."""
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("index must be a 1-D integer array")
    if values.shape[0] != idx.shape[0]:
        raise ValueError("values and index lengths differ")
    rt = a.store.runtime

    def kernel(ctx):
        iv = ctx.view("idx")
        np.add.at(ctx.arrays["a"], iv, ctx.view("v"))

    def cost(ctx):
        vol = ctx.rect("v").volume()
        isz = ctx.arrays["a"].dtype.itemsize
        return float(vol), vol * 3.0 * isz + ctx.rect("idx").volume() * 8.0

    task = AutoTask(rt, "scatter_add", kernel, cost)
    task.add_reduction("a", a.store)
    task.add_input("idx", idx.store)
    task.add_input("v", values.store)
    task.add_alignment_constraint(idx.store, values.store)
    task.add_image_constraint(idx.store, a.store, kind="coordinate")
    task.execute()


# ----------------------------------------------------------------------
# Basic slicing (copy semantics)
# ----------------------------------------------------------------------
def _normalize_slice(key: slice, n: int) -> Tuple[int, int, int]:
    start, stop, step = key.indices(n)
    if step <= 0:
        raise NotImplementedError("negative slice steps are not supported")
    length = max(0, (stop - start + step - 1) // step)
    return start, step, length


def slice_copy(a: ndarray, key: slice) -> ndarray:
    """a[start:stop:step] as a distributed gather copy."""
    start, step, length = _normalize_slice(key, a.shape[0])
    rt = a.store.runtime
    out = _make((length,) + a.shape[1:], a.dtype, runtime=rt)
    tiling = Tiling.create(out.store.region, rt.launch_colors)
    src_rects = []
    for c in range(tiling.color_count):
        r = tiling.rect(c)
        lo, hi = r.lo[0], r.hi[0]
        if hi <= lo:
            src_rects.append(Rect(a.store.region.rect.lo, a.store.region.rect.lo))
            continue
        slo = start + lo * step
        shi = start + (hi - 1) * step + 1
        if a.ndim == 1:
            src_rects.append(Rect((slo,), (shi,)))
        else:
            src_rects.append(Rect((slo, 0), (shi, a.shape[1])))
    part = ExplicitPartition(a.store.region, src_rects)

    def kernel(ctx):
        r = ctx.rect("out")
        lo, hi = r.lo[0], r.hi[0]
        if hi <= lo:
            return
        slo = start + lo * step
        shi = start + (hi - 1) * step + 1
        ctx.view("out")[...] = ctx.arrays["a"][slo:shi:step]

    def cost(ctx):
        vol = ctx.rect("out").volume()
        return 0.0, vol * 2.0 * a.dtype.itemsize

    task = AutoTask(rt, "slice_copy", kernel, cost)
    task.add_output("out", out.store)
    task.add_input("a", a.store)
    task.add_explicit_partition(out.store, tiling)
    task.add_explicit_partition(a.store, part)
    task.execute()
    return out


def slice_assign(a: ndarray, key: slice, value) -> None:
    """a[start:stop:step] = value as a distributed scatter."""
    start, step, length = _normalize_slice(key, a.shape[0])
    rt = a.store.runtime
    value_is_array = isinstance(value, ndarray)
    if value_is_array and value.shape[0] != length:
        raise ValueError("cannot broadcast value into slice")

    # Tile the slice domain; partition `a` with the mapped sub-rects.
    if value_is_array:
        domain_tiling = Tiling.create(value.store.region, rt.launch_colors)
    else:
        # Build a throwaway tiling over the slice length.
        boundaries = Tiling.create_boundaries(length, rt.launch_colors)
        domain_tiling = None
    dst_rects = []
    colors = rt.launch_colors
    bounds = (
        domain_tiling.boundaries
        if domain_tiling is not None
        else boundaries
    )
    for c in range(colors):
        lo, hi = bounds[c], bounds[c + 1]
        if hi <= lo:
            dst_rects.append(Rect(a.store.region.rect.lo, a.store.region.rect.lo))
            continue
        slo = start + lo * step
        shi = start + (hi - 1) * step + 1
        if a.ndim == 1:
            dst_rects.append(Rect((slo,), (shi,)))
        else:
            dst_rects.append(Rect((slo, 0), (shi, a.shape[1])))
    part = ExplicitPartition(a.store.region, dst_rects)

    def kernel(ctx):
        if "v" in ctx.rects:
            r = ctx.rect("v")
            lo, hi = r.lo[0], r.hi[0]
            if hi <= lo:
                return
            src = ctx.view("v")
        else:
            r = ctx.rect("a")
            if r.is_empty():
                return
            lo = (r.lo[0] - start) // step
            hi = lo + (r.hi[0] - r.lo[0] + step - 1) // step
            src = ctx.scalar("v")
        slo = start + lo * step
        shi = start + (hi - 1) * step + 1
        ctx.arrays["a"][slo:shi:step] = src

    def cost(ctx):
        vol = ctx.rect("a").volume()
        return 0.0, vol * 2.0 * a.dtype.itemsize

    task = AutoTask(rt, "slice_assign", kernel, cost)
    task.add_inout("a", a.store)
    task.add_explicit_partition(a.store, part)
    if value_is_array:
        task.add_input("v", value.store)
        task.add_explicit_partition(value.store, domain_tiling)
    else:
        task.add_scalar_arg("v", value.future if isinstance(value, Scalar) else value)
    task.execute()


# ----------------------------------------------------------------------
# __getitem__ / __setitem__ dispatch
# ----------------------------------------------------------------------
def getitem(a: ndarray, key):
    """``a[key]`` dispatch: ints, slices, integer-array gathers."""
    if isinstance(key, (int, np.integer)):
        a.runtime.barrier()
        if a.ndim == 1:
            return a.store.data[int(key)].item()
        from repro.numeric.creation import array

        return array(a.store.data[int(key)])
    if isinstance(key, slice):
        return slice_copy(a, key)
    if isinstance(key, ndarray):
        return gather_rows(a, key)
    if isinstance(key, np.ndarray) and np.issubdtype(key.dtype, np.integer):
        from repro.numeric.creation import array

        return gather_rows(a, array(key.astype(np.int64)))
    if isinstance(key, tuple) and all(isinstance(k, (int, np.integer)) for k in key):
        a.runtime.barrier()
        return a.store.data[tuple(int(k) for k in key)].item()
    raise NotImplementedError(f"unsupported index {key!r}")


def setitem(a: ndarray, key, value) -> None:
    """``a[key] = value`` dispatch: slice/int assignment."""
    if isinstance(key, slice):
        slice_assign(a, key, value)
        return
    if isinstance(key, (int, np.integer)):
        slice_assign(a, slice(int(key), int(key) + 1), value)
        return
    raise NotImplementedError(f"unsupported assignment index {key!r}")


def concatenate(arrays) -> ndarray:
    """Concatenate 1-D arrays (``numpy.concatenate``)."""
    arrays = list(arrays)
    if not arrays:
        raise ValueError("need at least one array to concatenate")
    if any(a.ndim != 1 for a in arrays):
        raise ValueError("concatenate supports 1-D arrays")
    rt = arrays[0].store.runtime
    total = sum(a.shape[0] for a in arrays)
    dtype = np.result_type(*[a.dtype for a in arrays])
    out = _make((total,), dtype, runtime=rt)
    offset = 0
    for a in arrays:
        if a.shape[0]:
            slice_assign(out, slice(offset, offset + a.shape[0]), a)
        offset += a.shape[0]
    return out


# ----------------------------------------------------------------------
# Transpose and small dense matmul
# ----------------------------------------------------------------------
def transpose(a: ndarray) -> ndarray:
    """2-D transpose as a task: an all-to-all-shaped data movement."""
    if a.ndim != 2:
        if a.ndim == 1:
            return a
        raise ValueError("transpose expects a 2-D array")
    rt = a.store.runtime
    out = _make((a.shape[1], a.shape[0]), a.dtype, runtime=rt)

    def kernel(ctx):
        r = ctx.rect("out")
        ctx.view("out")[...] = ctx.arrays["a"][:, r.lo[0] : r.hi[0]].T

    def cost(ctx):
        vol = ctx.rect("out").volume()
        return 0.0, vol * 2.0 * a.dtype.itemsize

    task = AutoTask(rt, "transpose", kernel, cost)
    task.add_output("out", out.store)
    task.add_input("a", a.store)
    task.add_broadcast(a.store)
    task.execute()
    return out


def matmul(a: ndarray, b: ndarray) -> ndarray:
    """Dense matmul for the shapes the workloads need.

    ``(n,k) @ (k,)`` and ``(n,k) @ (k,m)`` distribute over rows of ``a``
    with ``b`` broadcast (``b`` is small in every paper workload: solver
    basis vectors, factor-model blocks).  ``(n,) @ (n,)`` is ``dot``.
    """
    from repro.numeric.reductions import dot

    if a.ndim == 1 and b.ndim == 1:
        return dot(a, b)
    if a.ndim != 2:
        raise ValueError("matmul expects a matrix left operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    rt = a.store.runtime
    out_shape = (a.shape[0],) if b.ndim == 1 else (a.shape[0], b.shape[1])
    dtype = np.result_type(a.dtype, b.dtype)
    out = _make(out_shape, dtype, runtime=rt)

    def kernel(ctx):
        ctx.view("out")[...] = ctx.view("a") @ ctx.arrays["b"]

    def cost(ctx):
        rows = ctx.rect("a").shape[0]
        k = a.shape[1]
        m = 1 if b.ndim == 1 else b.shape[1]
        isz = dtype.itemsize
        return 2.0 * rows * k * m, (rows * k + k * m + rows * m) * isz

    task = AutoTask(rt, "matmul", kernel, cost)
    task.add_output("out", out.store)
    task.add_input("a", a.store)
    task.add_input("b", b.store)
    task.add_alignment_constraint(out.store, a.store)
    task.add_broadcast(b.store)
    task.execute()
    return out
