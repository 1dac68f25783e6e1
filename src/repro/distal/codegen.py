"""Code generation: tensor-algebra statements to NumPy shard kernels.

For each supported (statement, format) pair the generator emits Python
*source text* implementing the shard kernel — vectorized NumPy operating
on global arrays with shard bounds, exactly the shape of the
DISTAL-generated C++ task in the paper's Fig. 7 — plus a cost function
for the roofline timing model and the constraint set the launcher must
declare (the paper's Fig. 4).  Source is compiled with ``exec`` and kept
on the generated-kernel object for inspection and testing.

Cost functions consult the runtime configuration for the effects the
paper discusses: the local-reshape penalty Legate pays before calling
cuSPARSE/MKL on its global-format pieces (§3), and the inefficiency of
the baseline's SDDMM kernel relative to DISTAL's (Fig. 12).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distal.formats import Format
from repro.distal.ir import Assignment
from repro.distal.schedule import Schedule
from repro.machine import ProcessorKind


@dataclass
class KernelSpec:
    """Everything a launcher needs to run a generated kernel."""

    name: str
    # kernel/cost are filled in after the lint pass accepts the source.
    kernel: Optional[Callable]
    cost: Optional[Callable]
    source: str
    # (argument name, role) where role in {in, out, inout, reduce}
    args: List[Tuple[str, str]]
    # Declarative constraint set, e.g. ("align", "y", "pos") or
    # ("image_range", "pos", ("crd", "vals")).
    constraints: List[tuple]
    scalar_names: List[str] = field(default_factory=list)


class UnsupportedStatement(NotImplementedError):
    """No template exists for (statement, format)."""
    pass


_PROLOGUE = "import numpy as np\n\n"

# Compilation is memoized: generated sources recur — format kernels once
# per (statement, format, kind), merged nests once per window shape —
# and exec'ing the same text again buys nothing.  Keyed by (name,
# source); the injected ``env`` is always the same constant table for a
# given name/source, so it does not key the cache.
_COMPILE_CACHE: Dict[Tuple[str, str], Dict[str, Callable]] = {}
_COMPILE_STATS = {"hits": 0, "misses": 0}


def _compile(
    name: str, source: str, env: Optional[Dict[str, object]] = None
) -> Dict[str, Callable]:
    key = (name, source)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        _COMPILE_STATS["hits"] += 1
        return cached
    _COMPILE_STATS["misses"] += 1
    namespace: Dict[str, object] = dict(env or {})
    exec(compile(_PROLOGUE + source, f"<distal:{name}>", "exec"), namespace)
    _COMPILE_CACHE[key] = namespace
    return namespace  # type: ignore[return-value]


def compile_cache_stats() -> Dict[str, int]:
    """A copy of the exec-compilation cache hit/miss counters."""
    return dict(_COMPILE_STATS)


def clear_compile_cache() -> None:
    """Drop memoized namespaces and zero the counters (tests)."""
    _COMPILE_CACHE.clear()
    _COMPILE_STATS["hits"] = 0
    _COMPILE_STATS["misses"] = 0


def segment_sums(
    contrib: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-row sums along the last axis of ``contrib`` — the one row
    reduction every generated gather kernel shares (injected into the
    exec'd namespace, like ``_OPS`` for nests).

    Row ``r`` owns ``contrib[..., starts[r] : starts[r] + counts[r]]`` and
    rows tile the axis back to back, so the non-empty rows' starts are
    exactly ``np.add.reduceat``'s boundaries; empty rows come back zero.
    ``reduceat`` sums each segment on its own, ``seg[0] +
    pairwise(seg[1:])``, lane by lane over any leading axis, hence: a
    row's error is at most ``nnz_row * eps * (|A||x|)_row``; its bits
    depend on that row alone (``procs=1 == procs=N``); and a stacked
    SpMM column is bit-for-bit the lone SpMV.
    """
    live = counts > 0
    sums = np.add.reduceat(
        contrib, starts.compress(live), axis=-1, dtype=contrib.dtype
    )
    if sums.shape[-1] == counts.shape[0]:
        return sums
    out = np.zeros(contrib.shape[:-1] + counts.shape, dtype=contrib.dtype)
    out[..., live] = sums
    return out


def _flop_factor() -> str:
    """Complex arithmetic costs ~4x real (expression used inside costs)."""
    return "(4.0 if np.iscomplexobj(vals) else 1.0)"


# ----------------------------------------------------------------------
# Templates.  Each returns (kernel_source, args, constraints).
# ----------------------------------------------------------------------


def _template_csr_spmv(kind: ProcessorKind) -> Tuple[str, list, list]:
    reshape = "rows * 8.0 if ctx.config.local_reshape_penalty else 0.0"
    source = f'''
def kernel(ctx):
    """y(i) = A(i,j) * x(j) with A in CSR; row-split (paper Fig. 7)."""
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; x = ctx.arrays["x"]; y = ctx.arrays["y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    contrib = vals[jlo:jhi] * x.take(crd[jlo:jhi])
    y[rlo:rhi] = segment_sums(contrib, lo - jlo, hi - lo)


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    isz = vals.dtype.itemsize
    flops = 2.0 * nnz * {_flop_factor()}
    nbytes = nnz * (8.0 + isz + isz) + rows * (16.0 + isz)
    nbytes += {reshape}
    return flops, nbytes
'''
    args = [("y", "out"), ("pos", "in"), ("crd", "in"), ("vals", "in"), ("x", "in")]
    constraints = [
        ("align", "y", "pos"),
        ("image_range", "pos", ("crd", "vals")),
        ("image_coord", "crd", ("x",)),
    ]
    return source, args, constraints


def _template_csr_spmv_transpose(kind: ProcessorKind) -> Tuple[str, list, list]:
    reshape = "rows * 8.0 if ctx.config.local_reshape_penalty else 0.0"
    source = f'''
def kernel(ctx):
    """y(j) = A(i,j) * x(i) with A in CSR; row-split scatter-add.

    Also serves CSC SpMV (column-compressed A with x/y roles flipped).
    The caller must zero y before the launch (REDUCE privilege).
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; x = ctx.arrays["x"]; y = ctx.arrays["y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    contrib = vals[jlo:jhi] * np.repeat(x[rlo:rhi], hi - lo)
    np.add.at(y, crd[jlo:jhi], contrib)


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    isz = vals.dtype.itemsize
    flops = 2.0 * nnz * {_flop_factor()}
    # Scatter writes are read-modify-write on y.
    nbytes = nnz * (8.0 + isz + 2.0 * isz) + rows * (16.0 + isz)
    nbytes += {reshape}
    return flops, nbytes
'''
    args = [("y", "reduce"), ("pos", "in"), ("crd", "in"), ("vals", "in"), ("x", "in")]
    constraints = [
        ("align", "x", "pos"),
        ("image_range", "pos", ("crd", "vals")),
        ("image_coord", "crd", ("y",)),
    ]
    return source, args, constraints


def _template_csr_spmm(kind: ProcessorKind) -> Tuple[str, list, list]:
    reshape = "rows * 8.0 if ctx.config.local_reshape_penalty else 0.0"
    source = f'''
def kernel(ctx):
    """Y(i,k) = A(i,j) * X(j,k) with A in CSR; row-split.

    Contributions are laid out (k, nnz) so each column reduces along
    the contiguous non-zero axis; only the shard's image of X (its
    ctx rect) is transposed, never the global array.
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; X = ctx.arrays["X"]; Y = ctx.arrays["Y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    xr = ctx.rects["X"]
    xlo = xr.lo[0]
    contrib = vals[jlo:jhi] * X[xlo : xr.hi[0]].T.take(crd[jlo:jhi] - xlo, axis=1)
    Y[rlo:rhi, :] = segment_sums(contrib, lo - jlo, hi - lo).T


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    k = ctx.arrays["X"].shape[1]
    isz = vals.dtype.itemsize
    flops = 2.0 * nnz * k * {_flop_factor()}
    nbytes = nnz * (8.0 + isz) + nnz * k * isz + rows * (16.0 + k * isz)
    nbytes += {reshape}
    return flops, nbytes
'''
    args = [("Y", "out"), ("pos", "in"), ("crd", "in"), ("vals", "in"), ("X", "in")]
    constraints = [
        ("align", "Y", "pos"),
        ("image_range", "pos", ("crd", "vals")),
        ("image_coord", "crd", ("X",)),
    ]
    return source, args, constraints


def _template_csr_spmm_transpose(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """Y(j,k) = A(i,j) * X(i,k) with A in CSR; row-split scatter-add.

    The caller must zero Y before the launch (REDUCE privilege).
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; X = ctx.arrays["X"]; Y = ctx.arrays["Y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    k = X.shape[1]
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    contrib = vals[jlo:jhi, None] * X.take(rows, axis=0)
    # Flat 1-D scatter (ufunc.at's fast path); per output element the
    # additions happen in the same non-zero order as a 2-D add.at.
    flat = crd[jlo:jhi, None] * k + np.arange(k)
    np.add.at(Y.reshape(-1), flat.reshape(-1), contrib.reshape(-1))


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    k = ctx.arrays["X"].shape[1]
    isz = vals.dtype.itemsize
    flops = 2.0 * nnz * k * {_flop_factor()}
    nbytes = nnz * (8.0 + isz) + 3.0 * nnz * k * isz + rows * 16.0
    return flops, nbytes
'''
    args = [("Y", "reduce"), ("pos", "in"), ("crd", "in"), ("vals", "in"), ("X", "in")]
    constraints = [
        ("align", "X", "pos"),
        ("image_range", "pos", ("crd", "vals")),
        ("image_coord", "crd", ("Y",)),
    ]
    return source, args, constraints


def _template_csr_sddmm(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """R(i,j) = B(i,j) * C(i,k) * D(j,k): sampled dense-dense matmul.

    B is CSR; R shares B's structure, so only R's values are produced.
    D is passed pre-transposed as a (cols, k) matrix.
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; C = ctx.arrays["C"]; D = ctx.arrays["D"]
    out = ctx.arrays["out_vals"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    cols = crd[jlo:jhi]
    out[jlo:jhi] = vals[jlo:jhi] * np.einsum(
        "nk,nk->n", C.take(rows, axis=0), D.take(cols, axis=0)
    )


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    k = ctx.arrays["C"].shape[1]
    isz = vals.dtype.itemsize
    ineff = ctx.config.sddmm_inefficiency
    flops = 2.0 * nnz * k * {_flop_factor()} * ineff
    nbytes = (nnz * (8.0 + 2.0 * isz) + 2.0 * nnz * k * isz + rows * 16.0) * ineff
    return flops, nbytes
'''
    args = [
        ("out_vals", "out"),
        ("pos", "in"),
        ("crd", "in"),
        ("vals", "in"),
        ("C", "in"),
        ("D", "in"),
    ]
    constraints = [
        ("align", "C", "pos"),
        ("image_range", "pos", ("crd", "vals", "out_vals")),
        ("image_coord", "crd", ("D",)),
    ]
    return source, args, constraints


def _template_csr_sampled(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """R(i,j) = C(i,k) * D(j,k) sampled on a CSR pattern.

    Only the pattern (pos/crd) is read: R's values are the dot products
    of C's rows with D's rows at the stored coordinates, in the SDDMM
    kernel's order, so they equal an SDDMM over unit values bit for bit.
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    C = ctx.arrays["C"]; D = ctx.arrays["D"]
    out = ctx.arrays["out_vals"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    cols = crd[jlo:jhi]
    out[jlo:jhi] = np.einsum(
        "nk,nk->n", C.take(rows, axis=0), D.take(cols, axis=0)
    )


def cost(ctx):
    vals = ctx.arrays["out_vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    k = ctx.arrays["C"].shape[1]
    isz = vals.dtype.itemsize
    ineff = ctx.config.sddmm_inefficiency
    flops = 2.0 * nnz * k * {_flop_factor()} * ineff
    nbytes = (nnz * (8.0 + isz) + 2.0 * nnz * k * isz + rows * 16.0) * ineff
    return flops, nbytes
'''
    args = [
        ("out_vals", "out"),
        ("pos", "in"),
        ("crd", "in"),
        ("C", "in"),
        ("D", "in"),
    ]
    constraints = [
        ("align", "C", "pos"),
        ("image_range", "pos", ("crd", "out_vals")),
        ("image_coord", "crd", ("D",)),
    ]
    return source, args, constraints


def _template_csr_row_sums(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(i) = A(i,j) with A in CSR: row sums."""
    pos = ctx.arrays["pos"]; vals = ctx.arrays["vals"]; y = ctx.arrays["y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    y[rlo:rhi] = segment_sums(vals[jlo:jhi], lo - jlo, hi - lo)


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["vals"].volume()
    rows = ctx.rects["pos"].volume() // 2
    isz = vals.dtype.itemsize
    return nnz * {_flop_factor()}, nnz * isz + rows * (16.0 + isz)
'''
    args = [("y", "out"), ("pos", "in"), ("vals", "in")]
    constraints = [
        ("align", "y", "pos"),
        ("image_range", "pos", ("vals",)),
    ]
    return source, args, constraints


def _template_csr_col_sums(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(j) = A(i,j) with A in CSR: column sums (scatter-add).

    The caller must zero y before the launch (REDUCE privilege).
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; y = ctx.arrays["y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    np.add.at(y, crd[jlo:jhi], vals[jlo:jhi])


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    isz = vals.dtype.itemsize
    return nnz * {_flop_factor()}, nnz * (8.0 + 3.0 * isz)
'''
    args = [("y", "reduce"), ("pos", "in"), ("crd", "in"), ("vals", "in")]
    constraints = [
        ("image_range", "pos", ("crd", "vals")),
        ("image_coord", "crd", ("y",)),
    ]
    return source, args, constraints


def _template_csr_diagonal(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(i) = A(i,i) with A in CSR: diagonal extraction."""
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; y = ctx.arrays["y"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    y[rlo:rhi] = 0
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    if jhi <= jlo:
        return
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    cols = crd[jlo:jhi]
    hits = cols == rows
    y[rows[hits]] = vals[jlo:jhi][hits]


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["crd"].volume()
    rows = ctx.rects["pos"].volume() // 2
    isz = vals.dtype.itemsize
    return float(nnz), nnz * (8.0 + isz) + rows * (16.0 + isz)
'''
    args = [("y", "out"), ("pos", "in"), ("crd", "in"), ("vals", "in")]
    constraints = [
        ("align", "y", "pos"),
        ("image_range", "pos", ("crd", "vals")),
    ]
    return source, args, constraints


def _template_dia_spmv(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(i) = A(i,j) * x(j) with A in DIA (data stored (n, ndiags))."""
    data = ctx.arrays["data"]; offsets = ctx.arrays["offsets"]
    x = ctx.arrays["x"]; y = ctx.arrays["y"]
    yr = ctx.rects["y"]
    rlo, rhi = yr.lo[0], yr.hi[0]
    if rhi <= rlo:
        return
    m = x.shape[0]
    y[rlo:rhi] = 0
    for d in range(offsets.shape[0]):
        off = int(offsets[d])
        ilo = max(rlo, -off)
        ihi = min(rhi, m - off)
        if ihi <= ilo:
            continue
        y[ilo:ihi] += data[ilo:ihi, d] * x[ilo + off : ihi + off]


def cost(ctx):
    vals = ctx.arrays["data"]
    ndiags = ctx.arrays["offsets"].shape[0]
    rows = ctx.rects["y"].volume()
    isz = vals.dtype.itemsize
    flops = 2.0 * rows * ndiags * {_flop_factor().replace("vals", "ctx.arrays['data']")}
    nbytes = rows * ndiags * 2.0 * isz + rows * 2.0 * isz
    return flops, nbytes
'''
    args = [("y", "out"), ("data", "in"), ("offsets", "in"), ("x", "in")]
    constraints = [
        ("align", "y", "data"),
        ("broadcast", "offsets"),
        ("explicit", "x"),  # launcher supplies a shifted-tile partition
    ]
    return source, args, constraints


def _template_coo_spmv(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(i) = A(i,j) * x(j) with A in COO; nnz-split scatter-add.

    The caller must zero y before the launch (REDUCE privilege).
    """
    row = ctx.arrays["row"]; col = ctx.arrays["col"]
    vals = ctx.arrays["vals"]; x = ctx.arrays["x"]; y = ctx.arrays["y"]
    kr = ctx.rects["vals"]
    klo, khi = kr.lo[0], kr.hi[0]
    if khi <= klo:
        return
    np.add.at(y, row[klo:khi], vals[klo:khi] * x[col[klo:khi]])


def cost(ctx):
    vals = ctx.arrays["vals"]
    nnz = ctx.rects["vals"].volume()
    isz = vals.dtype.itemsize
    flops = 2.0 * nnz * {_flop_factor()}
    return flops, nnz * (16.0 + 4.0 * isz)
'''
    args = [("y", "reduce"), ("row", "in"), ("col", "in"), ("vals", "in"), ("x", "in")]
    constraints = [
        ("align", "row", "col"),
        ("align", "row", "vals"),
        ("image_coord", "row", ("y",)),
        ("image_coord", "col", ("x",)),
    ]
    return source, args, constraints


def _template_bsr_spmv(kind: ProcessorKind) -> Tuple[str, list, list]:
    source = f'''
def kernel(ctx):
    """y(i) = A(i,j) * x(j) with A in BSR (block size R x C).

    vals is an (nblocks, R*C) region; pos compresses *block* rows and
    crd holds *block* column indices.  The paper plans BSR as the next
    DISTAL-generated format (§5.4).
    """
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]
    vals = ctx.arrays["vals"]; x = ctx.arrays["x"]; y = ctx.arrays["y"]
    R = ctx.scalar("R"); C = ctx.scalar("C")
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])
    blocks = vals[jlo:jhi].reshape(-1, R, C)
    xblk = x.reshape(-1, C).take(crd[jlo:jhi], axis=0)
    contrib = np.einsum("bij,bj->ib", blocks, xblk)
    y[rlo * R : rhi * R] = segment_sums(contrib, lo - jlo, hi - lo).T.reshape(-1)


def cost(ctx):
    vals = ctx.arrays["vals"]
    R = ctx.scalar("R"); C = ctx.scalar("C")
    nblocks = ctx.rects["crd"].volume()
    brows = ctx.rects["pos"].volume() // 2
    isz = vals.dtype.itemsize
    flops = 2.0 * nblocks * R * C * {_flop_factor()}
    nbytes = nblocks * (8.0 + R * C * isz + C * isz) + brows * (16.0 + R * isz)
    return flops, nbytes
'''
    args = [("y", "out"), ("pos", "in"), ("crd", "in"), ("vals", "in"), ("x", "in")]
    constraints = [
        ("image_range", "pos", ("crd", "vals")),
        ("explicit", "y"),  # block-row tiles of pos, scaled by R
        ("explicit", "x"),  # block-column image of crd, scaled by C
    ]
    return source, args, constraints, ["R", "C"]


_TEMPLATES: Dict[Tuple[str, str], Callable] = {
    ("y(i)=A(i,j)*x(j)", "csr"): _template_csr_spmv,
    ("y(j)=A(i,j)*x(i)", "csr"): _template_csr_spmv_transpose,
    ("Y(i,k)=A(i,j)*X(j,k)", "csr"): _template_csr_spmm,
    ("Y(j,k)=A(i,j)*X(i,k)", "csr"): _template_csr_spmm_transpose,
    ("R(i,j)=B(i,j)*C(i,k)*D(j,k)", "csr"): _template_csr_sddmm,
    ("R(i,j)=C(i,k)*D(j,k)", "csr"): _template_csr_sampled,
    ("y(i)=A(i,j)", "csr"): _template_csr_row_sums,
    ("y(j)=A(i,j)", "csr"): _template_csr_col_sums,
    ("y(i)=A(i,i)", "csr"): _template_csr_diagonal,
    ("y(i)=A(i,j)*x(j)", "dia"): _template_dia_spmv,
    ("y(i)=A(i,j)*x(j)", "coo"): _template_coo_spmv,
    ("y(i)=A(i,j)*x(j)", "bsr"): _template_bsr_spmv,
}


def supported_statements() -> List[Tuple[str, str]]:
    """All (statement key, format name) template pairs."""
    return sorted(_TEMPLATES.keys())


def generate(
    statement: Assignment,
    fmt: Format,
    schedule: Optional[Schedule] = None,
    proc_kind: ProcessorKind = ProcessorKind.CPU_SOCKET,
    check: bool = True,
) -> KernelSpec:
    """Compile a statement for a format and processor kind.

    With ``check=True`` (the default) the statement, schedule and
    emitted source pass the pre-codegen legality lint
    (:mod:`repro.analysis.lint`); an ill-formed statement, an illegal
    schedule, or generated code referencing undeclared ``ctx`` names
    raises :class:`~repro.analysis.lint.DistalLintError` instead of
    producing a kernel.  Generation happens once per (statement,
    format, kind) — the registry caches the result — so the lint adds
    no per-launch cost.
    """
    key = statement.key()
    template = _TEMPLATES.get((key, fmt.name))
    if template is None:
        raise UnsupportedStatement(
            f"no template for statement {key!r} with format {fmt.name!r}"
        )
    parts = template(proc_kind)
    source, args, constraints = parts[:3]
    scalar_names = list(parts[3]) if len(parts) > 3 else []
    source = textwrap.dedent(source).strip() + "\n"
    name = f"{fmt.name}:{key}:{proc_kind.value}"
    spec = KernelSpec(
        name=name,
        kernel=None,
        cost=None,
        source=source,
        args=args,
        constraints=constraints,
        scalar_names=scalar_names,
    )
    if check:
        from repro.analysis.lint import DistalLintError, lint_all

        issues = lint_all(statement, schedule, spec)
        if issues:
            raise DistalLintError(issues)
    namespace = _compile(name, source, env={"segment_sums": segment_sums})
    spec.kernel = namespace["kernel"]
    spec.cost = namespace["cost"]
    return spec


# ----------------------------------------------------------------------
# Merged loop nests for merge-safe fused groups (kernel fusion).
# ----------------------------------------------------------------------
@dataclass
class NestSpec:
    """A combined loop nest for one merge-safe fused group -- or for
    one merge-safe segment of a group aligned per region, whose other
    segments run beside it (:func:`repro.legion.fusion.fuse`).

    ``kernel``/``cost`` run against the *fused* launch context (mangled
    ``"<i>.<name>"`` requirement and scalar names, ``i`` the launch's
    position in the whole group, exactly as
    :func:`repro.legion.fusion.fuse` builds it), so the fused launch
    swaps them in for its replay closures unchanged.  ``source`` is the
    exec'd text, kept for inspection like :class:`KernelSpec`.
    """

    name: str
    kernel: Callable
    cost: Callable
    source: str


_MAX_NEST_NAME = 96


def _nest_env() -> Dict[str, Dict[str, Callable]]:
    # Lazy: repro.numeric's package import reaches back into the
    # runtime, which imports this module during a flush.
    from repro.numeric import optable

    ops: Dict[str, Callable] = {}
    ops.update(optable.UNOPS)
    ops.update(optable.BINOPS)
    return {"_OPS": ops, "_PARTS": optable.PARTIALS}


def generate_nest(plan) -> NestSpec:
    """Emit ONE exec'd NumPy source for a merge-safe group.

    ``plan`` is a :class:`repro.analysis.depend.NestPlan` (duck-typed —
    this module stays import-independent of the analyzer).  Each step
    becomes one statement of the nest: its postfix program is folded
    into a single expression at generation time, the value is cast to
    the output dtype with the same ``.astype`` semantics NumPy applies
    on ``out[...] = expr`` stores (bitwise-identical to replay), then
    stored; later steps read the nest variable, not the store.  The
    emitted ``cost`` charges the merged model: per-step flops identical
    to replay, bytes deduplicated to external reads plus writes — one
    cost entry for the whole group.

    The group's scalar reductions (``plan.tails``) form the epilogue:
    after the last store, each one's per-shard partial over views of
    its operands; the kernel returns the partials, in issue order.

    Op callables are injected as the ``_OPS`` environment and reduction
    partials as ``_PARTS`` (the shared :mod:`repro.numeric.optable`),
    so the nest runs the exact same NumPy functions in the exact same
    order the replay path would.
    Compilation is memoized (:func:`_compile`): recurring window
    shapes re-exec nothing.
    """
    kernel_lines: List[str] = [
        "def _cast(value, dt):",
        "    value = np.asarray(value)",
        "    return value if value.dtype == dt else value.astype(dt)",
        "",
        "",
        "def kernel(ctx):",
    ]
    for step in plan.steps:
        stack: List[str] = []
        for kind, arg in step.program:
            if kind == "view":
                stack.append(f"ctx.view({arg!r})")
            elif kind == "scalar":
                stack.append(f"ctx.scalar({arg!r})")
            elif kind == "var":
                stack.append(f"v{arg}")
            elif kind == "un":
                stack.append(f"_OPS[{arg!r}]({stack.pop()})")
            else:  # bin
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(f"_OPS[{arg!r}]({lhs}, {rhs})")
        (expr,) = stack
        kernel_lines.append(f"    # [{step.index}] {step.name}")
        kernel_lines.append(
            f"    v{step.index} = _cast({expr}, np.dtype({step.dtype!r}))"
        )
        kernel_lines.append(f"    ctx.view({step.out!r})[...] = v{step.index}")
    # Epilogue: the group's scalar reductions, each the partial its own
    # kernel computes, over views of the stored regions (never over
    # nest values: same memory, same call, same bits).
    for tail in plan.tails:
        views = ", ".join(f"ctx.view({name!r})" for name in tail.operands)
        kernel_lines.append(f"    # [{tail.index}] {tail.name}  [reduction]")
        kernel_lines.append(
            f"    p{tail.index} = _PARTS[{tail.part!r}]({views})"
        )
    if plan.tails:
        partials = ", ".join(f"p{tail.index}" for tail in plan.tails)
        kernel_lines.append(f"    return [{partials}]")

    cost_lines: List[str] = ["def cost(ctx):", "    flops = 0.0"]
    for step in plan.steps:
        if step.weight:
            cost_lines.append(
                f"    flops += {step.weight!r} * "
                f"ctx.rects[{step.out!r}].volume()"
            )
    cost_lines.append("    nbytes = 0.0")
    for name in tuple(plan.reads) + tuple(plan.charged_writes):
        cost_lines.append(
            f"    nbytes += ctx.rects[{name!r}].volume() * "
            f"ctx.arrays[{name!r}].dtype.itemsize"
        )
    # Reductions are charged as on their own: every operand read once,
    # one flop per element.
    for tail in plan.tails:
        for name in tail.operands:
            cost_lines.append(f"    vol = ctx.rects[{name!r}].volume()")
            cost_lines.append("    flops += vol")
            cost_lines.append(
                f"    nbytes += vol * ctx.arrays[{name!r}].dtype.itemsize"
            )
    cost_lines.append("    return flops, nbytes")

    source = "\n".join(kernel_lines) + "\n\n\n" + "\n".join(cost_lines) + "\n"
    names = [step.name for step in plan.steps]
    names.extend(tail.name for tail in plan.tails)
    joined = "+".join(names)
    if len(joined) > _MAX_NEST_NAME:
        joined = joined[: _MAX_NEST_NAME - 3] + "..."
    name = f"nest{{{len(names)}}}:{joined}"
    namespace = _compile(name, source, env=_nest_env())
    return NestSpec(
        name=name,
        kernel=namespace["kernel"],
        cost=namespace["cost"],
        source=source,
    )
