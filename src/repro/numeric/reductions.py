"""Reductions: per-shard partials folded with the allreduce model."""

from __future__ import annotations

import math

import numpy as np

from repro.constraints import AutoTask
from repro.numeric import optable
from repro.numeric.array import Scalar, ndarray


def _reduction_cost(ctx):
    nbytes = 0.0
    flops = 0.0
    for name, rect in ctx.rects.items():
        vol = rect.volume()
        nbytes += vol * ctx.arrays[name].dtype.itemsize
        flops += vol
    return flops, nbytes


def _launch_reduction(
    name, a: ndarray, op: str, b: ndarray = None, kernel=None
) -> Scalar:
    """One scalar reduction: per-shard partials folded across shards by
    ``op``.  The partial is ``optable.PARTIALS[name]`` over the shard's
    operand views -- exposed as the launch's body IR, so that a fused
    group's generated nest can run it as an epilogue -- unless a
    ``kernel`` is given, which stays opaque (fused, never merged).
    Either way the kernel touches exactly its shard's rect of every
    operand, which is what admits it to the deferred window.
    """
    rt = a.store.runtime
    expr = None
    if kernel is None:
        part = optable.PARTIALS[name]
        if b is None:
            expr = (("load", "a"), ("part", name))

            def kernel(ctx):
                return part(ctx.view("a"))
        else:
            expr = (("load", "a"), ("load", "b"), ("part", name))

            def kernel(ctx):
                return part(ctx.view("a"), ctx.view("b"))
    task = AutoTask(rt, name, kernel, _reduction_cost)
    task.add_input("a", a.store)
    if b is not None:
        if b.shape != a.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        task.add_input("b", b.store)
        task.add_alignment_constraint(a.store, b.store)
    task.set_scalar_reduction(op)
    task.set_pointwise(name, expr=expr)
    future = task.execute()
    return Scalar(future, rt)


def sum(a: ndarray, axis=None):
    """Full or per-axis sum; 2-D axis sums return distributed vectors."""
    if axis is not None:
        return _axis_sum(a, axis)
    return _launch_reduction("sum", a, "sum")


def _axis_sum(a: ndarray, axis: int) -> ndarray:
    from repro.constraints import AutoTask

    if a.ndim != 2:
        raise ValueError("axis sums require a 2-D array")
    if axis in (1, -1):
        # Row sums: output aligns with the rows the shard already owns.
        rt = a.store.runtime
        from repro.numeric.creation import _make

        out = _make((a.shape[0],), a.dtype, runtime=rt)

        def kernel(ctx):
            ctx.view("out")[...] = ctx.view("a").sum(axis=1)

        def cost(ctx):
            vol = ctx.rect("a").volume()
            return float(vol), vol * a.dtype.itemsize

        task = AutoTask(rt, "sum_axis1", kernel, cost)
        task.add_output("out", out.store)
        task.add_input("a", a.store)
        task.add_alignment_constraint(out.store, a.store)
        task.execute()
        return out
    if axis == 0:
        # Column sums: per-shard partials folded into the output tiles.
        rt = a.store.runtime
        from repro.numeric.creation import zeros

        out = zeros(a.shape[1], dtype=a.dtype)

        def kernel(ctx):
            view = ctx.view("a")
            if view.size:
                ctx.arrays["out"][...] += view.sum(axis=0)

        def cost(ctx):
            vol = ctx.rect("a").volume()
            return float(vol), vol * a.dtype.itemsize

        task = AutoTask(rt, "sum_axis0", kernel, cost)
        task.add_reduction("out", out.store)
        task.add_input("a", a.store)
        task.add_broadcast(out.store)
        task.execute()
        return out
    raise ValueError(f"invalid axis {axis}")


def prod(a: ndarray) -> Scalar:
    """Product of all elements."""
    return _launch_reduction("prod", a, "prod")


def mean(a: ndarray, axis=None):
    """Mean over all elements or per axis."""
    total = sum(a, axis=axis)
    if axis is None:
        if a.size == 0:
            # numpy.mean's value for an empty array, without the
            # RuntimeWarning a 0/0 inside the future would emit.
            return total * math.nan
        return total / a.size
    return total / a.shape[1 if axis in (1, -1) else 0]


def amax(a: ndarray) -> Scalar:
    """Maximum element (a deferred Scalar)."""
    return _launch_reduction("amax", a, "max")


def amin(a: ndarray) -> Scalar:
    """Minimum element (a deferred Scalar)."""
    return _launch_reduction("amin", a, "min")


def dot(a: ndarray, b: ndarray) -> Scalar:
    """Plain (non-conjugating) inner product of two 1-D arrays."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dot expects 1-D operands; use matmul for matrices")
    return _launch_reduction("dot", a, "sum", b=b)


def vdot(a: ndarray, b: ndarray) -> Scalar:
    """Conjugating inner product (what iterative solvers need)."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("vdot expects 1-D operands")
    return _launch_reduction("vdot", a, "sum", b=b)


def argmax(a: ndarray) -> Scalar:
    """Index of the maximum (first occurrence per shard)."""

    def kernel(ctx):
        v = ctx.view("a")
        if not v.size:
            return (-np.inf, 0)
        local = int(np.argmax(v))
        return (float(v[local]), -(ctx.rect("a").lo[0] + local))

    partial = _launch_reduction("argmax", a, "max", kernel=kernel)
    return Scalar(partial.future.map(lambda t: -t[1]), partial.runtime)


def argmin(a: ndarray) -> Scalar:
    """Index of the minimum (first occurrence per shard)."""

    def kernel(ctx):
        v = ctx.view("a")
        if not v.size:
            return (np.inf, 0)
        local = int(np.argmin(v))
        return (float(v[local]), ctx.rect("a").lo[0] + local)

    partial = _launch_reduction("argmin", a, "min", kernel=kernel)
    return Scalar(partial.future.map(lambda t: t[1]), partial.runtime)


def count_nonzero(a: ndarray) -> Scalar:
    """Number of non-zero elements (a deferred Scalar)."""
    return _launch_reduction("count_nonzero", a, "sum")


def allclose(a: ndarray, b: ndarray, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """Synchronizing element-wise closeness check (``numpy.allclose``)."""

    def kernel(ctx):
        return bool(np.allclose(ctx.view("a"), ctx.view("b"), rtol=rtol, atol=atol))

    result = _launch_reduction("allclose", a, "min", b=b, kernel=kernel)
    return bool(result.value)


def array_equal(a: ndarray, b: ndarray) -> bool:
    """Synchronizing exact equality check."""
    if a.shape != b.shape:
        return False

    def kernel(ctx):
        return bool(np.array_equal(ctx.view("a"), ctx.view("b")))

    result = _launch_reduction("array_equal", a, "min", b=b, kernel=kernel)
    return bool(result.value)


def sum_abs_squared(a: ndarray) -> Scalar:
    """sum(|a|^2): the partial under a 2-norm; always real."""
    return _launch_reduction("norm2", a, "sum")
