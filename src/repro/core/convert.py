"""Hand-written distributed kernels: element-wise sparse algebra, format
conversions, and SpGEMM (paper §5.3).

These are the operations SciPy implements with C loops over index
arrays.  Structure-producing operations (union/intersection adds,
SpGEMM) use the same two-pass scheme as the real legate.sparse: a
*symbolic* pass computes per-row output counts, the host scans them into
a new ``pos`` array, and a *numeric* pass fills the output ``crd`` and
``vals`` regions through an image of the new ``pos``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

import repro.numeric as rnp
from repro.constraints import AutoTask, Store
from repro.numeric.array import ndarray


# ----------------------------------------------------------------------
# Shared shard helpers (operate on global arrays + shard bounds)
# ----------------------------------------------------------------------
def _shard_rows(ctx, pos_name: str) -> Tuple[int, int]:
    r = ctx.rect(pos_name)
    return r.lo[0], r.hi[0]


def _expand(pos: np.ndarray, crd: np.ndarray, rlo: int, rhi: int):
    """Expand a pos row range to (rows, cols, jlo, jhi) for a shard."""
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    if rhi <= rlo:
        empty = np.empty(0, np.int64)
        return empty, empty, 0, 0
    jlo, jhi = int(lo[0]), int(hi[-1])
    rows = np.repeat(np.arange(rlo, rhi, dtype=np.int64), hi - lo)
    return rows, crd[jlo:jhi], jlo, jhi


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenation of [starts[i], starts[i]+counts[i])."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    offsets = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )


def _pos_from_counts(counts: "ndarray") -> Tuple[Store, int]:
    """Build a ``pos`` store from per-row counts with a distributed scan.

    The exclusive scan runs as two task phases (repro.numeric.scan); the
    only synchronization is reading the grand total, which sizes the
    output ``crd``/``vals`` regions — the same deferred-output pattern
    the real legate.sparse uses for its two-pass operations.
    """
    rt = counts.store.runtime
    excl, total = rnp.exclusive_scan(counts, dtype=np.int64)
    nnz = int(total)
    pos = Store.create((counts.shape[0], 2), np.int64, runtime=rt, name="pos")

    def kernel(ctx):
        r = ctx.rect("excl")
        lo, hi = r.lo[0], r.hi[0]
        if hi <= lo:
            return
        ctx.arrays["pos"][lo:hi, 0] = ctx.view("excl")
        ctx.arrays["pos"][lo:hi, 1] = ctx.view("excl") + ctx.view("counts")

    def cost(ctx):
        vol = ctx.rect("excl").volume()
        return float(vol), 4.0 * 8.0 * vol

    task = AutoTask(rt, "pos_from_counts", kernel, cost)
    task.add_output("pos", pos)
    task.add_input("excl", excl.store)
    task.add_input("counts", counts.store)
    task.add_alignment_constraint(pos, excl.store)
    task.add_alignment_constraint(excl.store, counts.store)
    task.execute()
    return pos, nnz


def _nlogn(nnz: float) -> float:
    return nnz * max(1.0, np.log2(max(nnz, 2.0)))


# ----------------------------------------------------------------------
# Element-wise union (add/sub/maximum/minimum) and intersection
# ----------------------------------------------------------------------
_UNION_COMBINE = {
    "add": np.add,
    "maximum": np.maximum,
    "minimum": np.minimum,
}


def binary_union(A, B, op: str = "add", beta: float = 1.0):
    """C = A ⊕ B on the structural union of the operands."""
    from repro.core.csr import csr_matrix

    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if op not in _UNION_COMBINE:
        raise ValueError(f"unsupported union op {op!r}")
    combine = _UNION_COMBINE[op]
    rt = A.runtime
    out_dtype = np.result_type(A.dtype, B.dtype)

    def _sorted_merge(ctx):
        rlo, rhi = _shard_rows(ctx, "Apos")
        rows_a, cols_a, ajlo, ajhi = _expand(ctx.arrays["Apos"], ctx.arrays["Acrd"], rlo, rhi)
        rows_b, cols_b, bjlo, bjhi = _expand(ctx.arrays["Bpos"], ctx.arrays["Bcrd"], rlo, rhi)
        rows = np.concatenate([rows_a, rows_b])
        cols = np.concatenate([cols_a, cols_b])
        if not len(rows):
            return rlo, rhi, rows, cols, None, None
        order = np.lexsort((cols, rows))
        fresh = np.empty(len(rows), dtype=bool)
        rs, cs = rows[order], cols[order]
        fresh[0] = True
        fresh[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        return rlo, rhi, rs, cs, order, fresh

    # -- symbolic pass ---------------------------------------------------
    counts = rnp.empty(A.shape[0], dtype=np.int64)

    def count_kernel(ctx):
        rlo, rhi, rs, cs, order, fresh = _sorted_merge(ctx)
        if rhi <= rlo:
            return
        if order is None:
            ctx.arrays["counts"][rlo:rhi] = 0
            return
        ctx.arrays["counts"][rlo:rhi] = np.bincount(
            rs[fresh] - rlo, minlength=rhi - rlo
        )

    def count_cost(ctx):
        nnz = ctx.rect("Acrd").volume() + ctx.rect("Bcrd").volume()
        return _nlogn(nnz), nnz * 16.0

    task = AutoTask(rt, f"union_count_{op}", count_kernel, count_cost)
    task.add_output("counts", counts.store)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_alignment_constraint(counts.store, A.pos)
    task.add_alignment_constraint(A.pos, B.pos)
    task.add_image_constraint(A.pos, A.crd, kind="range")
    task.add_image_constraint(B.pos, B.crd, kind="range")
    task.execute()

    out_pos, nnz = _pos_from_counts(counts)
    out_crd = Store.create((nnz,), np.int64, runtime=rt, name="crd")
    out_vals = Store.create((nnz,), out_dtype, runtime=rt, name="vals")

    # -- numeric pass ------------------------------------------------------
    def fill_kernel(ctx):
        rlo, rhi, rs, cs, order, fresh = _sorted_merge(ctx)
        if rhi <= rlo or order is None:
            return
        _, _, ajlo, ajhi = _expand(ctx.arrays["Apos"], ctx.arrays["Acrd"], rlo, rhi)
        _, _, bjlo, bjhi = _expand(ctx.arrays["Bpos"], ctx.arrays["Bcrd"], rlo, rhi)
        va = ctx.arrays["Avals"][ajlo:ajhi].astype(out_dtype, copy=False)
        vb = ctx.arrays["Bvals"][bjlo:bjhi].astype(out_dtype, copy=False)
        if op == "add" and beta != 1.0:
            vb = vb * beta
        vs = np.concatenate([va, vb])[order]
        starts = np.flatnonzero(fresh)
        merged = combine.reduceat(vs, starts) if len(starts) else vs[:0]
        opos = ctx.arrays["Opos"]
        olo, ohi = int(opos[rlo, 0]), int(opos[rhi - 1, 1])
        ctx.arrays["Ocrd"][olo:ohi] = cs[fresh]
        ctx.arrays["Ovals"][olo:ohi] = merged

    def fill_cost(ctx):
        nnz_in = ctx.rect("Acrd").volume() + ctx.rect("Bcrd").volume()
        isz = out_dtype.itemsize
        return _nlogn(nnz_in), nnz_in * (16.0 + 2.0 * isz)

    task = AutoTask(rt, f"union_fill_{op}", fill_kernel, fill_cost)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Avals", A.vals)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_input("Bvals", B.vals)
    task.add_input("Opos", out_pos)
    task.add_output("Ocrd", out_crd)
    task.add_output("Ovals", out_vals)
    task.add_alignment_constraint(A.pos, B.pos)
    task.add_alignment_constraint(A.pos, out_pos)
    task.add_image_constraint(A.pos, [A.crd, A.vals], kind="range")
    task.add_image_constraint(B.pos, [B.crd, B.vals], kind="range")
    task.add_image_constraint(out_pos, [out_crd, out_vals], kind="range")
    task.execute()

    from repro.core.csr import csr_matrix

    return csr_matrix._from_stores(out_pos, out_crd, out_vals, A.shape)


def multiply_intersection(A, B):
    """C = A ⊙ B on the structural intersection (Hadamard product)."""
    from repro.core.csr import csr_matrix

    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    rt = A.runtime
    out_dtype = np.result_type(A.dtype, B.dtype)

    def _sorted_pairs(ctx):
        rlo, rhi = _shard_rows(ctx, "Apos")
        rows_a, cols_a, ajlo, ajhi = _expand(ctx.arrays["Apos"], ctx.arrays["Acrd"], rlo, rhi)
        rows_b, cols_b, bjlo, bjhi = _expand(ctx.arrays["Bpos"], ctx.arrays["Bcrd"], rlo, rhi)
        rows = np.concatenate([rows_a, rows_b])
        cols = np.concatenate([cols_a, cols_b])
        if not len(rows):
            return rlo, rhi, None, None, None, (ajlo, ajhi, bjlo, bjhi)
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        # With canonical operands a (row, col) pair appears at most twice:
        # once from A and once from B.  Hits are adjacent after the sort.
        hit = np.zeros(len(rs), dtype=bool)
        hit[1:] = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
        return rlo, rhi, order, (rs, cs), hit, (ajlo, ajhi, bjlo, bjhi)

    counts = rnp.empty(A.shape[0], dtype=np.int64)

    def count_kernel(ctx):
        rlo, rhi, order, sorted_rc, hit, _ = _sorted_pairs(ctx)
        if rhi <= rlo:
            return
        if order is None:
            ctx.arrays["counts"][rlo:rhi] = 0
            return
        rs, _ = sorted_rc
        ctx.arrays["counts"][rlo:rhi] = np.bincount(
            rs[hit] - rlo, minlength=rhi - rlo
        )

    def count_cost(ctx):
        nnz = ctx.rect("Acrd").volume() + ctx.rect("Bcrd").volume()
        return _nlogn(nnz), nnz * 16.0

    task = AutoTask(rt, "hadamard_count", count_kernel, count_cost)
    task.add_output("counts", counts.store)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_alignment_constraint(counts.store, A.pos)
    task.add_alignment_constraint(A.pos, B.pos)
    task.add_image_constraint(A.pos, A.crd, kind="range")
    task.add_image_constraint(B.pos, B.crd, kind="range")
    task.execute()

    out_pos, nnz = _pos_from_counts(counts)
    out_crd = Store.create((nnz,), np.int64, runtime=rt, name="crd")
    out_vals = Store.create((nnz,), out_dtype, runtime=rt, name="vals")

    def fill_kernel(ctx):
        rlo, rhi, order, sorted_rc, hit, spans = _sorted_pairs(ctx)
        if rhi <= rlo or order is None:
            return
        ajlo, ajhi, bjlo, bjhi = spans
        _, cs = sorted_rc
        va = ctx.arrays["Avals"][ajlo:ajhi].astype(out_dtype, copy=False)
        vb = ctx.arrays["Bvals"][bjlo:bjhi].astype(out_dtype, copy=False)
        vs = np.concatenate([va, vb])[order]
        products = vs[np.flatnonzero(hit) - 1] * vs[hit]
        opos = ctx.arrays["Opos"]
        olo, ohi = int(opos[rlo, 0]), int(opos[rhi - 1, 1])
        ctx.arrays["Ocrd"][olo:ohi] = cs[hit]
        ctx.arrays["Ovals"][olo:ohi] = products

    def fill_cost(ctx):
        nnz_in = ctx.rect("Acrd").volume() + ctx.rect("Bcrd").volume()
        isz = out_dtype.itemsize
        return _nlogn(nnz_in), nnz_in * (16.0 + 2.0 * isz)

    task = AutoTask(rt, "hadamard_fill", fill_kernel, fill_cost)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Avals", A.vals)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_input("Bvals", B.vals)
    task.add_input("Opos", out_pos)
    task.add_output("Ocrd", out_crd)
    task.add_output("Ovals", out_vals)
    task.add_alignment_constraint(A.pos, B.pos)
    task.add_alignment_constraint(A.pos, out_pos)
    task.add_image_constraint(A.pos, [A.crd, A.vals], kind="range")
    task.add_image_constraint(B.pos, [B.crd, B.vals], kind="range")
    task.add_image_constraint(out_pos, [out_crd, out_vals], kind="range")
    task.execute()

    from repro.core.csr import csr_matrix

    return csr_matrix._from_stores(out_pos, out_crd, out_vals, A.shape)


def multiply_dense(A, other):
    """A ⊙ D for dense D: a full (n, m) matrix, or a 1-D row vector of
    length m that scales columns (NumPy broadcasting of shape ``(m,)``)."""
    from repro.core.csr import csr_matrix

    rt = A.runtime
    if isinstance(other, np.ndarray):
        other = rnp.array(other)
    n, m = A.shape
    if other.ndim == 1 and other.shape[0] == m:
        mode = "cols"
    elif other.ndim == 2 and other.shape == (n, m):
        mode = "full"
    else:
        raise ValueError(f"cannot broadcast dense operand {other.shape} to {A.shape}")
    out_dtype = np.result_type(A.dtype, other.dtype)
    out_vals = rnp.empty(A.nnz, dtype=out_dtype)

    def kernel(ctx):
        rlo, rhi = _shard_rows(ctx, "pos")
        rows, cols, jlo, jhi = _expand(ctx.arrays["pos"], ctx.arrays["crd"], rlo, rhi)
        if jhi <= jlo:
            return
        vals = ctx.arrays["vals"][jlo:jhi]
        D = ctx.arrays["D"]
        if mode == "cols":
            factor = D[cols]
        else:
            factor = D[rows, cols]
        ctx.arrays["out_vals"][jlo:jhi] = vals * factor

    def cost(ctx):
        nnz = ctx.rect("crd").volume()
        isz = out_dtype.itemsize
        return float(nnz), nnz * (8.0 + 3.0 * isz)

    task = AutoTask(rt, f"multiply_dense_{mode}", kernel, cost)
    task.add_output("out_vals", out_vals.store)
    task.add_input("pos", A.pos)
    task.add_input("crd", A.crd)
    task.add_input("vals", A.vals)
    task.add_input("D", other.store)
    task.add_image_constraint(A.pos, [A.crd, A.vals, out_vals.store], kind="range")
    if mode == "cols":
        task.add_image_constraint(A.crd, other.store, kind="coordinate")
    else:
        task.add_alignment_constraint(A.pos, other.store)
    task.execute()
    return csr_matrix._from_stores(A.pos, A.crd, out_vals.store, A.shape)


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def expand_row_indices(A) -> ndarray:
    """The COO row array of a CSR matrix (distributed expansion)."""
    rt = A.runtime
    rows = rnp.empty(A.nnz, dtype=np.int64)

    def kernel(ctx):
        rlo, rhi = _shard_rows(ctx, "pos")
        r, _, jlo, jhi = _expand(ctx.arrays["pos"], ctx.arrays["crd"], rlo, rhi)
        if jhi <= jlo:
            return
        ctx.arrays["rows"][jlo:jhi] = r

    def cost(ctx):
        nnz = ctx.rect("crd").volume()
        return float(nnz), nnz * 16.0

    task = AutoTask(rt, "expand_rows", kernel, cost)
    task.set_pointwise("expand_rows")  # writes its image rect of rows only
    task.set_structure()  # rows come from pos alone
    task.add_output("rows", rows.store)
    task.add_input("pos", A.pos)
    task.add_input("crd", A.crd)
    task.add_image_constraint(A.pos, [A.crd, rows.store], kind="range")
    task.execute()
    return rows


def csr_to_coo(A):
    """CSR -> COO via distributed row expansion (shares crd/vals)."""
    from repro.core.coo import coo_matrix

    rows = expand_row_indices(A)
    return coo_matrix._from_stores(rows.store, A.crd, A.vals, A.shape)


def csr_to_csc(A):
    """CSR → CSC: a global sort, run as a single gathered task.

    Format conversions that reorganize data globally are the expensive
    operations the paper warns about (§1); the single-shard launch with
    replicated inputs models exactly that gather + sort cost.
    """
    from repro.core.csc import csc_matrix

    rt = A.runtime
    n, m = A.shape
    rows = expand_row_indices(A)
    out_pos = Store.create((m, 2), np.int64, runtime=rt, name="pos")
    out_crd = Store.create((A.nnz,), np.int64, runtime=rt, name="crd")
    out_vals = Store.create((A.nnz,), A.dtype, runtime=rt, name="vals")

    def kernel(ctx):
        r = ctx.arrays["rows"]
        c = ctx.arrays["crd"]
        v = ctx.arrays["vals"]
        order = np.lexsort((r, c))
        ctx.arrays["Ocrd"][...] = r[order]
        ctx.arrays["Ovals"][...] = v[order]
        counts = np.bincount(c, minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        ctx.arrays["Opos"][:, 0] = indptr[:-1]
        ctx.arrays["Opos"][:, 1] = indptr[1:]

    def cost(ctx):
        nnz = ctx.rect("crd").volume()
        isz = A.dtype.itemsize
        return _nlogn(nnz), nnz * (32.0 + 2.0 * isz) + m * 16.0

    task = AutoTask(rt, "csr_to_csc", kernel, cost, colors=1)
    task.add_input("rows", rows.store)
    task.add_input("crd", A.crd)
    task.add_input("vals", A.vals)
    task.add_output("Opos", out_pos)
    task.add_output("Ocrd", out_crd)
    task.add_output("Ovals", out_vals)
    for store in (rows.store, A.crd, A.vals, out_pos, out_crd, out_vals):
        task.add_broadcast(store)
    task.execute()
    return csc_matrix._from_stores(out_pos, out_crd, out_vals, (n, m))


# ----------------------------------------------------------------------
# SpGEMM (two-pass row-split)
# ----------------------------------------------------------------------
def csr_spgemm(A, B):
    """C = A @ B for CSR operands: symbolic counts, scan, numeric fill."""
    from repro.core.csr import csr_matrix

    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {B.shape}")
    rt = A.runtime
    if B.pos.region.uid == A.pos.region.uid:
        # A @ A: the shared pos store would be both row-aligned (as A's)
        # and an image destination (as B's); clone B's structure.
        rt.barrier()
        B = csr_matrix._from_stores(
            Store.create(B.pos.shape, np.int64, data=B.pos.data.copy(), runtime=rt, name="pos"),
            Store.create(B.crd.shape, np.int64, data=B.crd.data.copy(), runtime=rt, name="crd"),
            B.vals,
            B.shape,
        )
    out_dtype = np.result_type(A.dtype, B.dtype)
    n = A.shape[0]

    def _expand_product(ctx):
        rlo, rhi = _shard_rows(ctx, "Apos")
        rows_a, acols, ajlo, ajhi = _expand(ctx.arrays["Apos"], ctx.arrays["Acrd"], rlo, rhi)
        if ajhi <= ajlo:
            return rlo, rhi, None
        bpos = ctx.arrays["Bpos"]
        blo = bpos[acols, 0]
        blen = bpos[acols, 1] - blo
        cat = _concat_ranges(blo, blen)
        rows = np.repeat(rows_a, blen)
        cols = ctx.arrays["Bcrd"][cat]
        return rlo, rhi, (rows, cols, cat, blen, ajlo, ajhi)

    counts = rnp.empty(n, dtype=np.int64)

    def count_kernel(ctx):
        rlo, rhi, expansion = _expand_product(ctx)
        if rhi <= rlo:
            return
        if expansion is None:
            ctx.arrays["counts"][rlo:rhi] = 0
            return
        rows, cols = expansion[0], expansion[1]
        if not len(rows):
            ctx.arrays["counts"][rlo:rhi] = 0
            return
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        fresh = np.empty(len(rs), dtype=bool)
        fresh[0] = True
        fresh[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        ctx.arrays["counts"][rlo:rhi] = np.bincount(rs[fresh] - rlo, minlength=rhi - rlo)

    def count_cost(ctx):
        work = ctx.rect("Acrd").volume() * 8.0  # expansion estimate
        return _nlogn(work), work * 16.0

    task = AutoTask(rt, "spgemm_count", count_kernel, count_cost)
    task.add_output("counts", counts.store)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_alignment_constraint(counts.store, A.pos)
    task.add_image_constraint(A.pos, A.crd, kind="range")
    task.add_image_constraint(A.crd, B.pos, kind="coordinate")
    task.add_image_constraint(B.pos, B.crd, kind="range")
    task.execute()

    out_pos, nnz = _pos_from_counts(counts)
    out_crd = Store.create((nnz,), np.int64, runtime=rt, name="crd")
    out_vals = Store.create((nnz,), out_dtype, runtime=rt, name="vals")

    def fill_kernel(ctx):
        rlo, rhi, expansion = _expand_product(ctx)
        if rhi <= rlo or expansion is None:
            return
        rows, cols, cat, blen, ajlo, ajhi = expansion
        if not len(rows):
            return
        va = np.repeat(ctx.arrays["Avals"][ajlo:ajhi], blen).astype(out_dtype, copy=False)
        vb = ctx.arrays["Bvals"][cat].astype(out_dtype, copy=False)
        vals = va * vb
        order = np.lexsort((cols, rows))
        rs, cs, vs = rows[order], cols[order], vals[order]
        fresh = np.empty(len(rs), dtype=bool)
        fresh[0] = True
        fresh[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        starts = np.flatnonzero(fresh)
        merged = np.add.reduceat(vs, starts)
        opos = ctx.arrays["Opos"]
        olo, ohi = int(opos[rlo, 0]), int(opos[rhi - 1, 1])
        ctx.arrays["Ocrd"][olo:ohi] = cs[fresh]
        ctx.arrays["Ovals"][olo:ohi] = merged

    def fill_cost(ctx):
        work = ctx.rect("Acrd").volume() * 8.0
        isz = out_dtype.itemsize
        return _nlogn(work) + work, work * (16.0 + 2.0 * isz)

    task = AutoTask(rt, "spgemm_fill", fill_kernel, fill_cost)
    task.add_input("Apos", A.pos)
    task.add_input("Acrd", A.crd)
    task.add_input("Avals", A.vals)
    task.add_input("Bpos", B.pos)
    task.add_input("Bcrd", B.crd)
    task.add_input("Bvals", B.vals)
    task.add_input("Opos", out_pos)
    task.add_output("Ocrd", out_crd)
    task.add_output("Ovals", out_vals)
    task.add_alignment_constraint(A.pos, out_pos)
    task.add_image_constraint(A.pos, [A.crd, A.vals], kind="range")
    task.add_image_constraint(A.crd, B.pos, kind="coordinate")
    task.add_image_constraint(B.pos, [B.crd, B.vals], kind="range")
    task.add_image_constraint(out_pos, [out_crd, out_vals], kind="range")
    task.execute()

    from repro.core.csr import csr_matrix

    return csr_matrix._from_stores(out_pos, out_crd, out_vals, (n, B.shape[1]))
