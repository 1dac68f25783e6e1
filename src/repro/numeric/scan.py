"""Distributed prefix sums: the classic two-phase parallel scan.

cuNumeric implements NumPy's ``cumsum`` with a multi-pass scan; this
module does the same on our runtime.  Phase 1 computes each shard's
local inclusive scan and its total; the totals are themselves scanned
(they are tiny — one value per processor, combined on the host exactly
as cuNumeric folds its per-shard futures); phase 2 adds each shard's
base offset.  The sparse library uses :func:`exclusive_scan` to build
``pos`` arrays from per-row counts without a host round-trip.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.constraints import AutoTask
from repro.legion.future import Future
from repro.numeric.array import Scalar, ndarray
from repro.numeric.creation import _make


def _scan_cost(ctx):
    vol = ctx.rect("out").volume()
    return float(vol), 2.0 * vol * ctx.arrays["out"].dtype.itemsize


def cumsum(a: ndarray, dtype=None) -> ndarray:
    """Inclusive prefix sum of a 1-D array (``numpy.cumsum``)."""
    if a.ndim != 1:
        raise ValueError("cumsum supports 1-D arrays")
    rt = a.store.runtime
    out_dtype = np.dtype(
        dtype if dtype is not None
        else (np.int64 if a.dtype.kind in "iu" else a.dtype)
    )
    out = _make(a.shape, out_dtype, runtime=rt)

    # Phase 1: local inclusive scans; each shard returns its total.
    # The runtime's scalar reduction gathers the totals; we need the
    # per-shard partials, so collect them via a 'sum' of a list trick:
    # instead, stash them in a side list (deterministic shard order).
    totals: list = []

    def local_kernel(ctx):
        view_in = ctx.view("a")
        view_out = ctx.view("out")
        if view_in.size:
            np.cumsum(view_in, out=view_out)
            totals.append((ctx.color, view_out[-1]))
        else:
            totals.append((ctx.color, out_dtype.type(0)))
        return 0.0

    task = AutoTask(rt, "scan_local", local_kernel, _scan_cost)
    task.add_output("out", out.store)
    task.add_input("a", a.store)
    task.add_alignment_constraint(out.store, a.store)
    task.set_scalar_reduction("sum")
    sync = task.execute()

    # Phase 2: scan the shard totals (host-side fold of per-shard
    # futures, like cuNumeric) and add each shard's base offset.
    totals.sort(key=lambda t: t[0])
    bases = np.zeros(len(totals) + 1, dtype=out_dtype)
    np.cumsum([t[1] for t in totals], out=bases[1:])

    def offset_kernel(ctx):
        base = bases[ctx.color]
        if base != 0:
            ctx.view("out")[...] += base

    task = AutoTask(rt, "scan_offset", offset_kernel, _scan_cost)
    task.add_inout("out", out.store)
    task.add_scalar_arg("sync", sync)
    task.execute()
    return out


def exclusive_scan(a: ndarray, dtype=None) -> Tuple[ndarray, Scalar]:
    """Exclusive prefix sum plus the grand total.

    ``out[i] = sum(a[:i])``; the total is what the sparse library sizes
    output ``crd``/``vals`` regions with during two-pass assembly.
    """
    inclusive = cumsum(a, dtype=dtype)
    rt = a.store.runtime
    out = _make(a.shape, inclusive.dtype, runtime=rt)

    def shift_kernel(ctx):
        r = ctx.rect("out")
        lo, hi = r.lo[0], r.hi[0]
        if hi <= lo:
            return 0
        inc = ctx.arrays["inc"]
        view = ctx.view("out")
        view[0] = inc[lo - 1] if lo > 0 else 0
        view[1:] = inc[lo : hi - 1]
        return 0

    # The shard needs its left neighbour's last element: an explicit
    # one-element-shifted partition (a halo in the other direction).
    from repro.geometry import Rect
    from repro.legion.partition import ExplicitPartition, Tiling

    tiling = Tiling.create(out.store.region, rt.launch_colors)
    rects = []
    for c in range(tiling.color_count):
        r = tiling.rect(c)
        if r.is_empty():
            rects.append(r)
            continue
        rects.append(Rect((max(0, r.lo[0] - 1),), (max(r.hi[0] - 1, r.lo[0]),)))
    task = AutoTask(rt, "scan_shift", shift_kernel, _scan_cost)
    task.add_output("out", out.store)
    task.add_input("inc", inclusive.store)
    task.add_explicit_partition(out.store, tiling)
    task.add_explicit_partition(inclusive.store, ExplicitPartition(inclusive.store.region, rects))
    task.execute()

    n = a.shape[0]
    if n == 0:
        total = Scalar(Future.ready(inclusive.dtype.type(0)), rt)
    else:
        rt.barrier()
        total = Scalar(Future(inclusive.store.data[-1], rt.issue_time), rt)
    return out, total
