"""CSC matrices: column-compressed, sharing kernels with CSR.

A CSC matrix stores ``pos`` over *columns*.  Its products dispatch into
the same DISTAL-generated kernels as CSR with the operand roles flipped
(a CSC SpMV is the CSR transpose-SpMV scatter kernel), and
``transpose()`` is free in both directions — the paper's CSR/CSC pair.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.numeric as rnp
from repro.core.base import spmatrix
from repro.distal.formats import CSR
from repro.distal.registry import get_registry, launch
from repro.numeric.array import ndarray


class csc_matrix(spmatrix):
    """Compressed sparse columns (pos over columns)."""
    format = "csc"

    def __init__(self, arg1, shape=None, dtype=None):
        from repro.core.csr import csr_matrix

        if isinstance(arg1, spmatrix):
            src = arg1.tocsc()
            spmatrix.__init__(self, src.shape, dtype or src.dtype)
            self.pos, self.crd = src.pos, src.crd
            self.vals = (
                src.vals
                if src.dtype == self._dtype
                else ndarray(src.vals).astype(self._dtype).store
            )
            return
        # Build through CSR and convert (host assembly either way).
        csr = csr_matrix(arg1, shape=shape, dtype=dtype)
        src = csr.tocsc()
        spmatrix.__init__(self, src.shape, src.dtype)
        self.pos, self.crd, self.vals = src.pos, src.crd, src.vals

    @classmethod
    def _from_stores(cls, pos, crd, vals, shape) -> "csc_matrix":
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
        """The values as a dense repro.numeric array (shared)."""
        return ndarray(self.vals)

    @property
    def indices(self) -> np.ndarray:
        """Host copy of the row-index array (crd)."""
        self._runtime.barrier()
        return self.crd.data.copy()

    @property
    def indptr(self) -> np.ndarray:
        """Host indptr over columns."""
        self._runtime.barrier()
        pos = self.pos.data
        if pos.shape[0] == 0:
            return np.zeros(1, dtype=np.int64)
        return np.concatenate([pos[:, 0], pos[-1:, 1]])

    def _stores(self) -> dict:
        return {"pos": self.pos, "crd": self.crd, "vals": self.vals}

    def _proc_kind(self):
        return self._runtime.scope.kind

    # ------------------------------------------------------------------
    # Products: CSC kernels are the CSR kernels with roles flipped.
    # ------------------------------------------------------------------
    def _promoted(self, other_dtype) -> "csc_matrix":
        out_dtype = np.result_type(self.dtype, other_dtype)
        if out_dtype == self.dtype:
            return self
        return csc_matrix._from_stores(
            self.pos, self.crd, ndarray(self.vals).astype(out_dtype).store, self.shape
        )

    def _matvec(self, x: ndarray) -> ndarray:
        A = self._promoted(x.dtype)
        y = rnp.zeros(self.shape[0], dtype=A.dtype)
        spec = get_registry().get("y(j)=A(i,j)*x(i)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"y": y.store, "x": x.store})
        launch(spec, self._runtime, stores)
        return y

    def _rmatvec(self, x: ndarray) -> ndarray:
        A = self._promoted(x.dtype)
        y = rnp.empty(self.shape[1], dtype=A.dtype)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"y": y.store, "x": x.store})
        launch(spec, self._runtime, stores)
        return y

    def _matmat(self, X: ndarray) -> ndarray:
        A = self._promoted(X.dtype)
        Y = rnp.zeros((self.shape[0], X.shape[1]), dtype=A.dtype)
        spec = get_registry().get("Y(j,k)=A(i,j)*X(i,k)", CSR, self._proc_kind())
        stores = A._stores()
        stores.update({"Y": Y.store, "X": X.store})
        launch(spec, self._runtime, stores)
        return Y

    # ------------------------------------------------------------------
    def transpose(self):
        """Free transpose: reinterpret as CSR."""
        from repro.core.csr import csr_matrix

        return csr_matrix._from_stores(
            self.pos, self.crd, self.vals, (self.shape[1], self.shape[0])
        )

    def tocsc(self) -> "csc_matrix":
        """Identity."""
        return self

    def tocsr(self):
        # Free transpose to CSR, real conversion, free transpose back.
        """Real conversion via the transposed sort."""
        result = self.transpose().tocsc().transpose()
        self._note_convert("csr", result)
        return result

    def tocoo(self):
        """Convert through CSR."""
        return self.tocsr().tocoo()

    def diagonal(self, k: int = 0) -> ndarray:
        """The main diagonal (through CSR)."""
        return self.tocsr().diagonal(k)

    def sum(self, axis: Optional[int] = None):
        """Sum of entries or per-axis sums (axis meaning flipped)."""
        if axis is None:
            return rnp.sum(self.data)
        # Column compression flips the axis meaning relative to CSR.
        flipped = {0: 1, 1: 0, -1: 0}[axis]
        return self.transpose().sum(axis=flipped)

    # ------------------------------------------------------------------
    def _with_values(self, vals: ndarray) -> "csc_matrix":
        return csc_matrix._from_stores(self.pos, self.crd, vals.store, self.shape)

    def _scale(self, alpha) -> "csc_matrix":
        return self._with_values(self.data * alpha)

    def _unary_values(self, fn) -> "csc_matrix":
        return self._with_values(fn(self.data))

    def copy(self) -> "csc_matrix":
        """A value-copying duplicate sharing structure."""
        return self._with_values(self.data.copy())

    def astype(self, dtype) -> "csc_matrix":
        """A cast copy of the values."""
        return self._with_values(self.data.astype(dtype))

    def conj(self) -> "csc_matrix":
        """Complex conjugate of the values."""
        if self.dtype.kind != "c":
            return self.copy()
        return self._with_values(self.data.conj())

    conjugate = conj

    def toarray(self) -> np.ndarray:
        """Synchronize and densify."""
        return self.transpose().toarray().T

    todense = toarray

    def _col_slice(self, key: slice) -> "csc_matrix":
        """Column slice: a pos-window over the column compression."""
        start, stop, step = key.indices(self.shape[1])
        if step != 1:
            raise NotImplementedError("strided column slicing is not supported")
        pos_nd = ndarray(self.pos)
        sub_pos = pos_nd[start:stop]
        return csc_matrix._from_stores(
            sub_pos.store, self.crd, self.vals, (self.shape[0], stop - start)
        )

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            rows, cols = key
            if rows == slice(None) and isinstance(cols, slice):
                return self._col_slice(cols)
        raise NotImplementedError(f"unsupported index {key!r}")


csc_array = csc_matrix
