"""COO matrices: coordinate lists, the assembly and interchange format."""

from __future__ import annotations

import numpy as np

import repro.numeric as rnp
from repro.constraints import Store
from repro.core import validation
from repro.core.base import spmatrix
from repro.distal.formats import COO
from repro.distal.registry import get_registry, launch
from repro.numeric.array import ndarray


class coo_matrix(spmatrix):
    """Coordinate-format matrix (row/col/vals regions)."""
    format = "coo"

    def __init__(self, arg1, shape=None, dtype=None):
        from repro.core.csr import _is_scipy_sparse

        if isinstance(arg1, spmatrix):
            src = arg1.tocoo()
            spmatrix.__init__(self, src.shape, dtype or src.dtype)
            self.row_store, self.col_store = src.row_store, src.col_store
            self.vals = (
                src.vals
                if src.dtype == self._dtype
                else ndarray(src.vals).astype(self._dtype).store
            )
            return
        if _is_scipy_sparse(arg1):
            coo = arg1.tocoo()
            self._init_from_host(coo.row, coo.col, coo.data, coo.shape, dtype)
            return
        if isinstance(arg1, np.ndarray) and arg1.ndim == 2:
            r, c = np.nonzero(arg1)
            self._init_from_host(r, c, arg1[r, c], arg1.shape, dtype)
            return
        if isinstance(arg1, tuple) and len(arg1) == 2 and np.ndim(arg1[0]) == 0:
            n, m = int(arg1[0]), int(arg1[1])
            empty = np.empty(0, np.int64)
            self._init_from_host(empty, empty, np.empty(0, dtype or np.float64), (n, m), dtype)
            return
        if isinstance(arg1, tuple) and len(arg1) == 2:
            data, (row, col) = arg1
            data, row, col = validation.check_coo_host(data, row, col, shape)
            if shape is None:
                shape = (
                    int(row.max()) + 1 if len(row) else 0,
                    int(col.max()) + 1 if len(col) else 0,
                )
            self._init_from_host(row, col, data, shape, dtype)
            return
        raise TypeError(f"cannot construct coo_matrix from {type(arg1).__name__}")

    def _init_from_host(self, row, col, data, shape, dtype):
        # Validate before canonicalizing: a negative row index would
        # silently corrupt the np.add.at scatter downstream.
        data, row, col = validation.check_coo_host(data, row, col, shape)
        order = np.lexsort((col, row))
        row, col, data = row[order], col[order], data[order]
        if len(row):
            fresh = np.empty(len(row), dtype=bool)
            fresh[0] = True
            fresh[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
            if not fresh.all():
                starts = np.flatnonzero(fresh)
                data = np.add.reduceat(data, starts)
                row, col = row[starts], col[starts]
        final_dtype = np.dtype(dtype) if dtype is not None else data.dtype
        if final_dtype.kind not in "fc":
            final_dtype = np.float64
        spmatrix.__init__(self, shape, final_dtype)
        rt = self._runtime
        nnz = len(row)
        self.row_store = Store.create((nnz,), np.int64, data=row, runtime=rt, name="row")
        self.col_store = Store.create((nnz,), np.int64, data=col, runtime=rt, name="col")
        self.vals = Store.create(
            (nnz,), final_dtype, data=data.astype(final_dtype), runtime=rt, name="vals"
        )

    @classmethod
    def _from_stores(cls, row, col, vals, shape) -> "coo_matrix":
        obj = cls.__new__(cls)
        spmatrix.__init__(obj, shape, vals.dtype)
        obj.row_store, obj.col_store, obj.vals = row, col, vals
        return obj

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self.vals.shape[0]

    @property
    def row(self) -> np.ndarray:
        """Host copy of the row-coordinate array."""
        self._runtime.barrier()
        return self.row_store.data.copy()

    @property
    def col(self) -> np.ndarray:
        """Host copy of the column-coordinate array."""
        self._runtime.barrier()
        return self.col_store.data.copy()

    @property
    def data(self) -> ndarray:
        """The values as a dense repro.numeric array (shared)."""
        return ndarray(self.vals)

    def _proc_kind(self):
        return self._runtime.scope.kind

    # ------------------------------------------------------------------
    def _matvec(self, x: ndarray) -> ndarray:
        out_dtype = np.result_type(self.dtype, x.dtype)
        vals = self.vals
        if out_dtype != self.dtype:
            vals = ndarray(self.vals).astype(out_dtype).store
        y = rnp.zeros(self.shape[0], dtype=out_dtype)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", COO, self._proc_kind())
        launch(
            spec,
            self._runtime,
            {
                "y": y.store,
                "row": self.row_store,
                "col": self.col_store,
                "vals": vals,
                "x": x.store,
            },
        )
        return y

    def _rmatvec(self, x: ndarray) -> ndarray:
        return self.transpose()._matvec(x)

    def _matmat(self, X: ndarray) -> ndarray:
        return self.tocsr()._matmat(X)

    # ------------------------------------------------------------------
    def transpose(self) -> "coo_matrix":
        """Free transpose: swap the coordinate stores."""
        return coo_matrix._from_stores(
            self.col_store, self.row_store, self.vals, (self.shape[1], self.shape[0])
        )

    def tocoo(self) -> "coo_matrix":
        """Identity."""
        return self

    def tocsr(self):
        """To CSR; shares arrays when already row-major sorted."""
        from repro.core.csr import csr_matrix

        self._runtime.barrier()
        row = self.row_store.data
        col = self.col_store.data
        if _is_row_major_sorted(row, col):
            # Already canonical: build pos from counts, share crd/vals.
            indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.add.at(indptr, row + 1, 1)
            np.cumsum(indptr, out=indptr)
            pos = Store.create(
                (self.shape[0], 2),
                np.int64,
                data=np.ascontiguousarray(np.stack([indptr[:-1], indptr[1:]], axis=1)),
                runtime=self._runtime,
                name="pos",
            )
            result = csr_matrix._from_stores(pos, self.col_store, self.vals, self.shape)
        else:
            result = csr_matrix(
                (self.vals.data.copy(), (row.copy(), col.copy())),
                shape=self.shape,
                dtype=self.dtype,
            )
        self._note_convert("csr", result)
        return result

    def todia(self):
        """Host conversion to diagonal storage."""
        from repro.core.dia import dia_matrix

        self._runtime.barrier()
        row, col = self.row_store.data, self.col_store.data
        offsets = np.unique(col - row) if len(row) else np.array([0], np.int64)
        n = self.shape[0]
        data_t = np.zeros((n, len(offsets)), dtype=self.dtype)
        dmap = {int(off): d for d, off in enumerate(offsets)}
        for r, c, v in zip(row, col, self.vals.data):
            data_t[r, dmap[int(c - r)]] = v
        result = dia_matrix._from_host_arrays(
            data_t, offsets.astype(np.int64), self.shape
        )
        self._note_convert("dia", result)
        return result

    def toarray(self) -> np.ndarray:
        """Synchronize and densify."""
        self._note_densify("coo.toarray")
        self._runtime.barrier()
        out = np.zeros(self.shape, dtype=self.dtype)
        # Canonical: no duplicates.
        out[self.row_store.data, self.col_store.data] = self.vals.data
        return out

    todense = toarray

    # ------------------------------------------------------------------
    def _with_values(self, vals: ndarray) -> "coo_matrix":
        return coo_matrix._from_stores(
            self.row_store, self.col_store, vals.store, self.shape
        )

    def _scale(self, alpha) -> "coo_matrix":
        return self._with_values(self.data * alpha)

    def _unary_values(self, fn) -> "coo_matrix":
        return self._with_values(fn(self.data))

    def copy(self) -> "coo_matrix":
        """A value-copying duplicate sharing structure."""
        return self._with_values(self.data.copy())

    def astype(self, dtype) -> "coo_matrix":
        """A cast copy of the values."""
        return self._with_values(self.data.astype(dtype))

    def conj(self) -> "coo_matrix":
        """Complex conjugate of the values."""
        if self.dtype.kind != "c":
            return self.copy()
        return self._with_values(self.data.conj())

    conjugate = conj


def _is_row_major_sorted(row: np.ndarray, col: np.ndarray) -> bool:
    if len(row) < 2:
        return True
    rd = np.diff(row)
    if (rd < 0).any():
        return False
    same = rd == 0
    return not (np.diff(col)[same] <= 0).any()


coo_array = coo_matrix
