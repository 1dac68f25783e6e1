"""DIA matrices: diagonal storage for banded operators.

Storage layout: ``data`` is an ``(n, ndiags)`` region where
``data[i, d]`` multiplies ``x[i + offsets[d]]`` — the transpose of
SciPy's ``(ndiags, m)`` convention, chosen so that the row dimension
tiles align with the output vector (DESIGN.md).  The SpMV uses a
DISTAL-generated kernel with an explicit shifted-tile partition of the
input vector (there is no ``crd`` array to take an image through).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.constraints import Store
from repro.core import validation
from repro.core.base import spmatrix
from repro.distal.formats import DIA
from repro.distal.registry import get_registry, launch
from repro.geometry import Rect
from repro.legion.partition import ExplicitPartition, Tiling
from repro.numeric.array import ndarray


def _scipy_dia_to_transposed(
    data: np.ndarray, offsets: np.ndarray, shape: Tuple[int, int]
) -> np.ndarray:
    """SciPy layout data[d, j] = A[j-off, j]  →  ours data_t[i, d] = A[i, i+off]."""
    n, m = shape
    ndiags = len(offsets)
    data_t = np.zeros((n, ndiags), dtype=data.dtype)
    for d, off in enumerate(offsets):
        off = int(off)
        ilo = max(0, -off)
        ihi = min(n, m - off)
        if ihi > ilo:
            data_t[ilo:ihi, d] = data[d, ilo + off : ihi + off]
    return data_t


class dia_matrix(spmatrix):
    """Diagonal-format matrix ((n, ndiags) data + offsets)."""
    format = "dia"

    def __init__(self, arg1, shape=None, dtype=None):
        from repro.core.csr import _is_scipy_sparse

        if isinstance(arg1, spmatrix):
            src = arg1.todia()
            spmatrix.__init__(self, src.shape, dtype or src.dtype)
            self.data_store = src.data_store
            self.offsets_store = src.offsets_store
            self._offsets_host = src._offsets_host
            return
        if _is_scipy_sparse(arg1):
            dia = arg1.todia()
            data_t = _scipy_dia_to_transposed(dia.data, dia.offsets, dia.shape)
            self._init_host(data_t, np.asarray(dia.offsets, np.int64), dia.shape, dtype)
            return
        if isinstance(arg1, tuple) and len(arg1) == 2:
            data, offsets = arg1
            data, offsets = validation.check_dia_host(data, offsets, shape)
            data_t = _scipy_dia_to_transposed(data, offsets, shape)
            self._init_host(data_t, offsets, shape, dtype)
            return
        if isinstance(arg1, np.ndarray) and arg1.ndim == 2:
            from repro.core.coo import coo_matrix

            src = coo_matrix(arg1, dtype=dtype).todia()
            spmatrix.__init__(self, src.shape, src.dtype)
            self.data_store = src.data_store
            self.offsets_store = src.offsets_store
            self._offsets_host = src._offsets_host
            return
        raise TypeError(f"cannot construct dia_matrix from {type(arg1).__name__}")

    def _init_host(self, data_t, offsets, shape, dtype):
        final_dtype = np.dtype(dtype) if dtype is not None else data_t.dtype
        if final_dtype.kind not in "fc":
            final_dtype = np.float64
        spmatrix.__init__(self, shape, final_dtype)
        rt = self._runtime
        self.data_store = Store.create(
            data_t.shape, final_dtype, data=data_t.astype(final_dtype), runtime=rt, name="dia_data"
        )
        self.offsets_store = Store.create(
            offsets.shape, np.int64, data=offsets, runtime=rt, name="dia_offsets"
        )
        self._offsets_host = offsets.copy()

    @classmethod
    def _from_host_arrays(cls, data_t, offsets, shape) -> "dia_matrix":
        obj = cls.__new__(cls)
        obj._init_host(data_t, offsets, shape, data_t.dtype)
        return obj

    # ------------------------------------------------------------------
    @property
    def offsets(self) -> np.ndarray:
        """Host copy of the diagonal offsets."""
        return self._offsets_host.copy()

    @property
    def data(self) -> ndarray:
        """The (n, ndiags) diagonal store as a dense array (shared)."""
        return ndarray(self.data_store)

    @property
    def nnz(self) -> int:
        # Stored entries (SciPy counts explicit entries including zeros
        # inside the band; we match the in-band count).
        """In-band stored entries."""
        n, m = self.shape
        total = 0
        for off in self._offsets_host:
            off = int(off)
            total += max(0, min(n, m - off) - max(0, -off))
        return total

    def _proc_kind(self):
        return self._runtime.scope.kind

    # ------------------------------------------------------------------
    def _matvec(self, x: ndarray) -> ndarray:
        out_dtype = np.result_type(self.dtype, x.dtype)
        data_store = self.data_store
        if out_dtype != self.dtype:
            data_store = ndarray(self.data_store).astype(out_dtype).store
        rt = self._runtime
        n, m = self.shape
        y = rnp.empty(n, dtype=out_dtype)
        offs = self._offsets_host
        lo_off = int(offs.min()) if len(offs) else 0
        hi_off = int(offs.max()) if len(offs) else 0
        tiling = Tiling.create(y.store.region, rt.launch_colors)
        rects = []
        for c in range(tiling.color_count):
            r = tiling.rect(c)
            if r.is_empty():
                rects.append(Rect((0,), (0,)))
                continue
            rects.append(
                Rect(
                    (max(0, r.lo[0] + lo_off),),
                    (min(m, r.hi[0] + hi_off + 1),),
                )
            )
        xpart = ExplicitPartition(x.store.region, rects)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", DIA, self._proc_kind())
        launch(
            spec,
            rt,
            {
                "y": y.store,
                "data": data_store,
                "offsets": self.offsets_store,
                "x": x.store,
            },
            explicit_partitions={"x": xpart},
        )
        return y

    def _rmatvec(self, x: ndarray) -> ndarray:
        return self.transpose()._matvec(x)

    def _matmat(self, X: ndarray) -> ndarray:
        return self.tocsr()._matmat(X)

    # ------------------------------------------------------------------
    def transpose(self) -> "dia_matrix":
        """Host-rebuilt transpose (offsets negated)."""
        self._runtime.barrier()
        n, m = self.shape
        data_t = self.data_store.data
        offsets = self._offsets_host
        new_offsets = np.sort(-offsets)
        new_data = np.zeros((m, len(new_offsets)), dtype=self.dtype)
        for d_new, off_new in enumerate(new_offsets):
            off_old = int(-off_new)
            d_old = int(np.where(offsets == off_old)[0][0])
            # A.T[i, i+off_new] = A[i+off_new, i] = data_t[i+off_new, d_old]
            ilo = max(0, -int(off_new))
            ihi = min(m, n - int(off_new))
            if ihi > ilo:
                new_data[ilo:ihi, d_new] = data_t[
                    ilo + int(off_new) : ihi + int(off_new), d_old
                ]
        return dia_matrix._from_host_arrays(new_data, new_offsets.astype(np.int64), (m, n))

    def tocoo(self):
        """Host conversion dropping explicit zeros."""
        from repro.core.coo import coo_matrix

        self._runtime.barrier()
        n, m = self.shape
        rows, cols, vals = [], [], []
        data_t = self.data_store.data
        for d, off in enumerate(self._offsets_host):
            off = int(off)
            ilo = max(0, -off)
            ihi = min(n, m - off)
            if ihi <= ilo:
                continue
            i = np.arange(ilo, ihi, dtype=np.int64)
            v = data_t[ilo:ihi, d]
            keep = v != 0
            rows.append(i[keep])
            cols.append(i[keep] + off)
            vals.append(v[keep])
        if rows:
            row = np.concatenate(rows)
            col = np.concatenate(cols)
            val = np.concatenate(vals)
        else:
            row = col = np.empty(0, np.int64)
            val = np.empty(0, self.dtype)
        result = coo_matrix((val, (row, col)), shape=self.shape, dtype=self.dtype)
        self._note_convert("coo", result)
        return result

    def tocsr(self):
        """Convert through COO."""
        return self.tocoo().tocsr()

    def todia(self) -> "dia_matrix":
        """Identity."""
        return self

    def toarray(self) -> np.ndarray:
        """Synchronize and densify."""
        return self.tocoo().toarray()

    todense = toarray

    def diagonal(self, k: int = 0) -> ndarray:
        """The main diagonal (zeros when not stored)."""
        if k != 0:
            raise NotImplementedError("only the main diagonal is supported")
        self._runtime.barrier()
        hits = np.where(self._offsets_host == 0)[0]
        n = min(self.shape)
        if len(hits) == 0:
            return rnp.zeros(n, dtype=self.dtype)
        return rnp.array(self.data_store.data[:n, int(hits[0])].copy())

    def sum(self, axis: Optional[int] = None):
        """Sum of entries or per-axis sums (through CSR)."""
        return self.tocsr().sum(axis=axis)

    # ------------------------------------------------------------------
    def _with_data(self, data: ndarray) -> "dia_matrix":
        obj = dia_matrix.__new__(dia_matrix)
        spmatrix.__init__(obj, self.shape, data.dtype)
        obj.data_store = data.store
        obj.offsets_store = self.offsets_store
        obj._offsets_host = self._offsets_host
        return obj

    def _scale(self, alpha) -> "dia_matrix":
        return self._with_data(self.data * alpha)

    def _unary_values(self, fn) -> "dia_matrix":
        return self._with_data(fn(self.data))

    def copy(self) -> "dia_matrix":
        """A value-copying duplicate sharing offsets."""
        return self._with_data(self.data.copy())

    def astype(self, dtype) -> "dia_matrix":
        """A cast copy of the diagonal data."""
        return self._with_data(self.data.astype(dtype))

    def conj(self) -> "dia_matrix":
        """Complex conjugate of the diagonal data."""
        if self.dtype.kind != "c":
            return self.copy()
        return self._with_data(self.data.conj())

    conjugate = conj


dia_array = dia_matrix
