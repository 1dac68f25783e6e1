"""CSR matrices over regions, with Legate's ``{lo, hi}`` pos encoding."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.constraints import Store
from repro.core import validation  # noqa: F401  (module import, no cycle)
from repro.core.base import issparse, spmatrix
from repro.distal.formats import CSR
from repro.distal.registry import get_registry, launch
from repro.legion.runtime import get_runtime
from repro.numeric.array import Scalar, ndarray


def _indptr_to_pos(indptr: np.ndarray) -> np.ndarray:
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.ascontiguousarray(np.stack([indptr[:-1], indptr[1:]], axis=1))


def _canonicalize_coo(
    row: np.ndarray, col: np.ndarray, data: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Host-side assembly: sort by (row, col) and sum duplicates.

    One stable sort on the fused key ``row * ncols + col`` orders the
    entries exactly as ``lexsort((col, row))`` does (indices are bounds-
    checked before they get here) and lets duplicates be found by
    comparing one array; shapes whose key would overflow int64 take the
    two-key sort.
    """
    nrows, ncols = int(shape[0]), int(shape[1])
    fused = nrows * ncols < 2**63
    if fused:
        key = np.multiply(row, ncols, dtype=np.int64) + col
        order = np.argsort(key, kind="stable")
        key = key[order]
    else:
        order = np.lexsort((col, row))
    row, col, data = row[order], col[order], data[order]
    if len(row):
        fresh = np.empty(len(row), dtype=bool)
        fresh[0] = True
        if fused:
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
        else:
            fresh[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not fresh.all():
            starts = np.flatnonzero(fresh)
            data = np.add.reduceat(data, starts)
            row, col = row[starts], col[starts]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=nrows), out=indptr[1:])
    return indptr, col.astype(np.int64), data


class csr_matrix(spmatrix):
    """Compressed sparse rows: ``pos`` (n,2), ``crd`` (nnz), ``vals`` (nnz)."""

    format = "csr"

    def __init__(self, arg1, shape=None, dtype=None):
        rt = get_runtime()
        if isinstance(arg1, spmatrix):
            src = arg1.tocsr()
            mat_shape, mat_dtype = src.shape, dtype or src.dtype
            super().__init__(mat_shape, mat_dtype)
            self.pos, self.crd = src.pos, src.crd
            self.vals = (
                src.vals
                if src.dtype == self._dtype
                else ndarray(src.vals).astype(self._dtype).store
            )
            return
        if _is_scipy_sparse(arg1):
            csr = arg1.tocsr()
            csr.sum_duplicates()
            csr.sort_indices()
            self._init_from_host(
                csr.indptr, csr.indices, csr.data, csr.shape, dtype
            )
            return
        if isinstance(arg1, np.ndarray) and arg1.ndim == 2:
            dense = arg1 if dtype is None else arg1.astype(dtype)
            r, c = np.nonzero(dense)
            indptr, crd, vals = _canonicalize_coo(
                r.astype(np.int64), c.astype(np.int64), dense[r, c], dense.shape
            )
            self._init_from_host(indptr, crd, vals, dense.shape, dtype)
            return
        if isinstance(arg1, ndarray) and arg1.ndim == 2:
            self.__init__(arg1.to_numpy(), shape=shape, dtype=dtype)
            return
        if isinstance(arg1, tuple) and len(arg1) == 2 and np.ndim(arg1[0]) == 0:
            # Empty matrix of a given shape.
            n, m = int(arg1[0]), int(arg1[1])
            indptr = np.zeros(n + 1, dtype=np.int64)
            self._init_from_host(
                indptr, np.empty(0, np.int64), np.empty(0, dtype or np.float64), (n, m), dtype
            )
            return
        if isinstance(arg1, tuple) and len(arg1) == 2:
            # (data, (row, col)) COO-style constructor.
            data, (row, col) = arg1
            data, row, col = validation.check_coo_host(data, row, col, shape)
            if shape is None:
                shape = (int(row.max()) + 1 if len(row) else 0,
                         int(col.max()) + 1 if len(col) else 0)
            indptr, crd, vals = _canonicalize_coo(row, col, data, shape)
            self._init_from_host(indptr, crd, vals, shape, dtype)
            return
        if isinstance(arg1, tuple) and len(arg1) == 3:
            data, indices, indptr = arg1
            data, indices, indptr = validation.check_csr_host(
                data, indices, indptr, shape
            )
            if shape is None:
                n = len(indptr) - 1
                m = int(np.max(indices)) + 1 if len(indices) else 0
                shape = (n, m)
            self._init_from_host(indptr, indices, data, shape, dtype)
            return
        raise TypeError(f"cannot construct csr_matrix from {type(arg1).__name__}")

    def _init_from_host(self, indptr, indices, data, shape, dtype):
        data = np.asarray(data)
        if len(data) != len(indices):
            raise ValueError(
                f"data length ({len(data)}) does not match indices length "
                f"({len(indices)})"
            )
        if len(indptr) != shape[0] + 1:
            raise ValueError(
                f"indptr length ({len(indptr)}) must be shape[0]+1 "
                f"({shape[0] + 1}) for shape {tuple(shape)}"
            )
        final_dtype = np.dtype(dtype) if dtype is not None else data.dtype
        if final_dtype.kind not in "fc":
            final_dtype = np.float64
        super().__init__(shape, final_dtype)
        rt = self._runtime
        n = shape[0]
        self.pos = Store.create(
            (n, 2), np.int64, data=_indptr_to_pos(indptr), runtime=rt, name="pos"
        )
        nnz = len(indices)
        self.crd = Store.create(
            (nnz,), np.int64, data=np.asarray(indices, np.int64), runtime=rt, name="crd"
        )
        self.vals = Store.create(
            (nnz,), final_dtype, data=data.astype(final_dtype), runtime=rt, name="vals"
        )

    @classmethod
    def _from_stores(
        cls, pos: Store, crd: Store, vals: Store, shape: Tuple[int, int]
    ) -> "csr_matrix":
        obj = cls.__new__(cls)
        spmatrix.__init__(obj, shape, vals.dtype)
        obj.pos, obj.crd, obj.vals = pos, crd, vals
        return obj

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self.crd.shape[0]

    @property
    def data(self) -> ndarray:
        """The values as a dense :mod:`repro.numeric` array (shared)."""
        return ndarray(self.vals)

    @property
    def indices(self) -> np.ndarray:
        """Host copy of the column-index array (crd)."""
        self._runtime.barrier()
        return self.crd.data.copy()

    @property
    def indptr(self) -> np.ndarray:
        """Host indptr derived from the {lo, hi} pos pairs."""
        self._runtime.barrier()
        pos = self.pos.data
        if pos.shape[0] == 0:
            return np.zeros(1, dtype=np.int64)
        return np.concatenate([pos[:, 0], pos[-1:, 1]])

    def _stores(self) -> dict:
        return {"pos": self.pos, "crd": self.crd, "vals": self.vals}

    @property
    def has_canonical_format(self) -> bool:
        """Always True (assembly canonicalizes)."""
        return True

    @property
    def has_sorted_indices(self) -> bool:
        """Always True (assembly sorts)."""
        return True

    # ------------------------------------------------------------------
    # Products (DISTAL-generated kernels)
    # ------------------------------------------------------------------
    def _proc_kind(self):
        return self._runtime.scope.kind

    def _promoted(self, other_dtype) -> "csr_matrix":
        out_dtype = np.result_type(self.dtype, other_dtype)
        if out_dtype == self.dtype:
            return self
        return csr_matrix(self, dtype=out_dtype)

    def _matvec(self, x: ndarray) -> ndarray:
        if self._runtime.config.autoformat:
            alt = self._autoformat_alt()
            if alt is not self:
                return alt._matvec(x)
        A = self._promoted(x.dtype)
        out_dtype = A.dtype
        y = rnp.empty(self.shape[0], dtype=out_dtype)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"y": y.store, "x": x.store})
        launch(spec, self._runtime, stores)
        return y

    def _autoformat_alt(self):
        """Auto-format hook: replay the format selector at first SpMV.

        Runs the same :func:`~repro.analysis.formatsel.select_format`
        the static advisor uses, so runtime decisions match advisor
        predictions exactly; converts only to bitwise-safe formats and
        caches the result (self is the stay-CSR sentinel).
        """
        cached = getattr(self, "_autoformat_cache", None)
        if cached is not None:
            return cached
        from repro.analysis.formatsel import profile_matrix, select_format

        rt = self._runtime
        rt.barrier()
        pos = self.pos.data
        rl = (pos[:, 1] - pos[:, 0]).astype(np.int64)
        profile = profile_matrix(
            rl,
            self.shape[1],
            self.dtype.itemsize,
            num_procs=len(rt.scope.processors),
        )
        decision = select_format(profile, rt.scope, rt.config)
        best = decision.best
        if best.fmt == "csr" or not best.bitwise_safe:
            self._autoformat_cache = self
            return self
        alt = self.asformat(best.fmt)
        self._autoformat_cache = alt
        rt.autoformat_log.append(
            {
                "rows": profile.rows,
                "cols": profile.cols,
                "nnz": profile.nnz,
                "dst_fmt": best.fmt,
                "predicted_op_seconds": best.op_seconds,
                "csr_op_seconds": decision.csr_seconds,
                "convert_seconds": best.convert_seconds,
                "break_even_ops": best.break_even_ops,
            }
        )
        self._advisor_note(
            "autoformat",
            src_fmt="csr",
            dst_fmt=best.fmt,
            rows=profile.rows,
            nnz=profile.nnz,
        )
        return alt

    def _rmatvec(self, x: ndarray) -> ndarray:
        A = self._promoted(x.dtype)
        y = rnp.zeros(self.shape[1], dtype=A.dtype)
        spec = get_registry().get("y(j)=A(i,j)*x(i)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"y": y.store, "x": x.store})
        launch(spec, self._runtime, stores)
        return y

    def _matmat(self, X: ndarray) -> ndarray:
        A = self._promoted(X.dtype)
        Y = rnp.empty((self.shape[0], X.shape[1]), dtype=A.dtype)
        spec = get_registry().get("Y(i,k)=A(i,j)*X(j,k)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"Y": Y.store, "X": X.store})
        launch(spec, self._runtime, stores)
        return Y

    def _matmat_transpose(self, X: ndarray) -> ndarray:
        """A.T @ X without materializing the transpose."""
        A = self._promoted(X.dtype)
        Y = rnp.zeros((self.shape[1], X.shape[1]), dtype=A.dtype)
        spec = get_registry().get("Y(j,k)=A(i,j)*X(i,k)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"Y": Y.store, "X": X.store})
        launch(spec, self._runtime, stores)
        return Y

    def sddmm(self, C: ndarray, D: ndarray) -> "csr_matrix":
        """R = A ⊙ (C @ D.T) without materializing the dense product.

        ``C`` is (rows, k) and ``D`` is (cols, k).  Generated with DISTAL
        in the paper; the key kernel of the Fig. 12 workload.
        """
        out_dtype = np.result_type(self.dtype, C.dtype, D.dtype)
        A = self._promoted(out_dtype)
        out_vals = rnp.empty(self.nnz, dtype=out_dtype)
        spec = get_registry().get(
            "R(i,j)=B(i,j)*C(i,k)*D(j,k)", CSR, self._proc_kind()
        )
        stores = A._stores()
        stores.update({"out_vals": out_vals.store, "C": C.store, "D": D.store})
        launch(spec, self._runtime, stores)
        return csr_matrix._from_stores(self.pos, self.crd, out_vals.store, self.shape)

    def _matmat_sparse(self, other: spmatrix) -> "csr_matrix":
        from repro.core.convert import csr_spgemm

        return csr_spgemm(self, other.tocsr())

    # ------------------------------------------------------------------
    # Reductions / structure
    # ------------------------------------------------------------------
    def diagonal(self, k: int = 0) -> ndarray:
        """The main diagonal (DISTAL-generated kernel)."""
        if k != 0:
            raise NotImplementedError("only the main diagonal is supported")
        if self.shape[0] != self.shape[1]:
            raise NotImplementedError("diagonal requires a square matrix")
        y = rnp.empty(self.shape[0], dtype=self.dtype)
        spec = get_registry().get("y(i)=A(i,i)", CSR, self._proc_kind())
        stores = self._stores()
        stores["y"] = y.store
        launch(spec, self._runtime, stores)
        return y

    def sum(self, axis: Optional[int] = None):
        """Sum of entries, or per-axis sums (generated kernels)."""
        if axis is None:
            return rnp.sum(self.data)
        if axis in (1, -1):
            y = rnp.empty(self.shape[0], dtype=self.dtype)
            spec = get_registry().get("y(i)=A(i,j)", CSR, self._proc_kind())
            launch(
                spec,
                self._runtime,
                {"y": y.store, "pos": self.pos, "vals": self.vals},
            )
            return y
        if axis == 0:
            y = rnp.zeros(self.shape[1], dtype=self.dtype)
            spec = get_registry().get("y(j)=A(i,j)", CSR, self._proc_kind())
            stores = self._stores()
            stores["y"] = y.store
            launch(spec, self._runtime, stores)
            return y
        raise ValueError(f"invalid axis {axis}")

    # ------------------------------------------------------------------
    # Value-space operations (ported onto the dense library, §5.2)
    # ------------------------------------------------------------------
    def _with_values(self, vals: ndarray) -> "csr_matrix":
        return csr_matrix._from_stores(self.pos, self.crd, vals.store, self.shape)

    def _scale(self, alpha) -> "csr_matrix":
        return self._with_values(self.data * alpha)

    def _unary_values(self, fn) -> "csr_matrix":
        return self._with_values(fn(self.data))

    def copy(self) -> "csr_matrix":
        """A value-copying duplicate sharing structure."""
        return self._with_values(self.data.copy())

    def astype(self, dtype) -> "csr_matrix":
        """A cast copy of the values (structure shared)."""
        return self._with_values(self.data.astype(dtype))

    def conj(self) -> "csr_matrix":
        """Complex conjugate of the values."""
        if self.dtype.kind != "c":
            return self.copy()
        return self._with_values(self.data.conj())

    conjugate = conj

    def power(self, n) -> "csr_matrix":
        """Element-wise power of the stored values."""
        return self._with_values(rnp.power(self.data, n))

    def __abs__(self) -> "csr_matrix":
        return self._with_values(abs(self.data))

    def sqrt(self) -> "csr_matrix":
        """Element-wise square root of the stored values."""
        return self._with_values(rnp.sqrt(self.data))

    # ------------------------------------------------------------------
    # Element-wise sparse algebra (hand-written two-pass kernels, §5.3)
    # ------------------------------------------------------------------
    def _add_sparse(self, other: "csr_matrix", beta: float) -> "csr_matrix":
        from repro.core.convert import binary_union

        return binary_union(self, other, op="add", beta=beta)

    def _binary_union(self, other: "csr_matrix", op: str) -> "csr_matrix":
        from repro.core.convert import binary_union

        return binary_union(self, other, op=op)

    def _multiply_sparse(self, other: "csr_matrix") -> "csr_matrix":
        from repro.core.convert import multiply_intersection

        return multiply_intersection(self, other)

    def _multiply_dense(self, other) -> "csr_matrix":
        from repro.core.convert import multiply_dense

        return multiply_dense(self, other)

    def _add_dense(self, other) -> "rnp.ndarray":
        """A + dense -> dense (SciPy semantics), one fused task."""
        from repro.constraints import AutoTask

        if isinstance(other, np.ndarray):
            other = rnp.array(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        self._note_densify("csr.add_dense")
        out_dtype = np.result_type(self.dtype, other.dtype)
        out = rnp.empty(self.shape, dtype=out_dtype)
        rt = self._runtime

        def kernel(ctx):
            pr = ctx.rects["pos"]
            rlo, rhi = pr.lo[0], pr.hi[0]
            if rhi <= rlo:
                return
            ctx.arrays["out"][rlo:rhi] = ctx.arrays["D"][rlo:rhi]
            pos = ctx.arrays["pos"]
            lo, hi = pos[rlo:rhi, 0], pos[rlo:rhi, 1]
            jlo, jhi = int(lo[0]), int(hi[-1])
            if jhi <= jlo:
                return
            rows = np.repeat(np.arange(rlo, rhi), hi - lo)
            cols = ctx.arrays["crd"][jlo:jhi]
            ctx.arrays["out"][rows, cols] += ctx.arrays["vals"][jlo:jhi]

        def cost(ctx):
            vol = ctx.rects["out"].volume()
            nnz = ctx.rects["crd"].volume()
            isz = out_dtype.itemsize
            return float(nnz), 2.0 * vol * isz + nnz * (8.0 + isz)

        task = AutoTask(rt, "add_dense", kernel, cost)
        task.add_output("out", out.store)
        task.add_input("pos", self.pos)
        task.add_input("crd", self.crd)
        task.add_input("vals", self.vals)
        task.add_input("D", other.store)
        task.add_alignment_constraint(out.store, self.pos)
        task.add_alignment_constraint(out.store, other.store)
        task.add_image_constraint(self.pos, [self.crd, self.vals], kind="range")
        task.execute()
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def tocsr(self) -> "csr_matrix":
        """Identity."""
        return self

    def tocoo(self):
        """Distributed row-expansion to COO (shares crd/vals)."""
        from repro.core.convert import csr_to_coo

        result = csr_to_coo(self)
        self._note_convert("coo", result)
        return result

    def tocsc(self):
        """Real conversion: a gathered global sort."""
        from repro.core.convert import csr_to_csc

        result = csr_to_csc(self)
        self._note_convert("csc", result)
        return result

    def todia(self):
        """Convert via COO."""
        return self.tocoo().todia()

    def toell(self):
        """Distributed padding to ELL (lanes masked by rowlen)."""
        from repro.core.convert import csr_to_ell

        result = csr_to_ell(self)
        self._note_convert("ell", result)
        return result

    def tosell(self, c: Optional[int] = None, sigma: Optional[int] = None):
        """Distributed repack to SELL-C-sigma (tiles permute onto themselves)."""
        from repro.core.convert import csr_to_sell

        result = csr_to_sell(self, c=c, sigma=sigma)
        self._note_convert("sell", result)
        return result

    def tohyb(self, quantile: Optional[float] = None):
        """Distributed split to HYB (ELL part at a row-length quantile)."""
        from repro.core.convert import csr_to_hyb

        result = csr_to_hyb(self, quantile=quantile)
        self._note_convert("hyb", result)
        return result

    def toarray(self) -> np.ndarray:
        """Synchronize and densify (vectorized expansion)."""
        from repro.core.convert import _concat_ranges

        self._note_densify("csr.toarray")
        self._runtime.barrier()
        out = np.zeros(self.shape, dtype=self.dtype)
        pos = self.pos.data
        if pos.shape[0] == 0:
            return out
        counts = pos[:, 1] - pos[:, 0]
        rows = np.repeat(np.arange(self.shape[0]), counts)
        idx = _concat_ranges(pos[:, 0], counts)
        out[rows, self.crd.data[idx]] = self.vals.data[idx]
        return out

    todense = toarray

    def transpose(self):
        """Zero-cost: reinterpret the arrays column-compressed (CSC)."""
        from repro.core.csc import csc_matrix

        return csc_matrix._from_stores(
            self.pos, self.crd, self.vals, (self.shape[1], self.shape[0])
        )

    # ------------------------------------------------------------------
    # Row slicing (pos rows share the crd/vals regions)
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._row_slice(key)
        if isinstance(key, tuple) and len(key) == 2:
            rows, cols = key
            if isinstance(rows, (int, np.integer)) and isinstance(cols, (int, np.integer)):
                return self._get_element(int(rows), int(cols))
            if isinstance(rows, slice) and cols == slice(None):
                return self._row_slice(rows)
            if rows == slice(None) and isinstance(cols, slice):
                # Column slice: free transpose, row-slice, transpose back
                # (the reshuffle happens in the CSC conversion — the
                # "expensive slicing" the paper's §5.4 talks about).
                return self.tocsc()._col_slice(cols)
        raise NotImplementedError(f"unsupported index {key!r}")

    def _row_slice(self, key: slice) -> "csr_matrix":
        start, stop, step = key.indices(self.shape[0])
        if step != 1:
            raise NotImplementedError("strided row slicing is not supported")
        pos_nd = ndarray(self.pos)
        sub_pos = pos_nd[start:stop]
        return csr_matrix._from_stores(
            sub_pos.store, self.crd, self.vals, (stop - start, self.shape[1])
        )

    def _get_element(self, i: int, j: int):
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"index ({i}, {j}) out of range for {self.shape}")
        self._runtime.barrier()
        lo, hi = self.pos.data[i]
        row_cols = self.crd.data[lo:hi]
        hits = np.flatnonzero(row_cols == j)
        if len(hits) == 0:
            return self.dtype.type(0)
        return self.vals.data[lo + hits[0]].item()

    def getrow(self, i: int) -> "csr_matrix":
        """A single row as a 1-row CSR (shares crd/vals)."""
        return self[i : i + 1]


def _is_scipy_sparse(x) -> bool:
    try:
        import scipy.sparse as sps

        return sps.issparse(x)
    except ImportError:  # pragma: no cover
        return False


# Modern scipy exposes *_array; behaviourally identical here.
csr_array = csr_matrix
