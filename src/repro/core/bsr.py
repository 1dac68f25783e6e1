"""BSR matrices: block sparse rows (the paper's §5.4 planned format).

Storage: ``pos`` compresses *block rows* ((nblockrows, 2) ranges), ``crd``
holds block-column indices, and ``vals`` is an ``(nblocks, R*C)`` region
of flattened blocks.  The SpMV is a DISTAL-generated kernel; the block
structure makes its shards dense-compute-friendly, which is why the
paper plans BSR as the next generated format.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.constraints import Store
from repro.core import validation
from repro.core.base import spmatrix
from repro.distal.formats import BSR
from repro.distal.registry import get_registry, launch
from repro.geometry import Rect
from repro.legion.partition import ExplicitPartition, Tiling
from repro.numeric.array import ndarray


class bsr_matrix(spmatrix):
    """Block sparse rows (block-compressed pos/crd + block vals)."""
    format = "bsr"

    def __init__(self, arg1, shape=None, blocksize: Optional[Tuple[int, int]] = None, dtype=None):
        import scipy.sparse as sps

        if isinstance(arg1, spmatrix):
            src = arg1.tocsr()
            self._init_from_scipy(
                sps.csr_matrix(
                    (src.vals.data.copy(), src.crd.data.copy(), src.indptr),
                    shape=src.shape,
                ).tobsr(blocksize=blocksize),
                dtype,
            )
            return
        if sps.issparse(arg1):
            self._init_from_scipy(arg1.tobsr(blocksize=blocksize), dtype)
            return
        if isinstance(arg1, np.ndarray) and arg1.ndim == 2:
            self._init_from_scipy(
                sps.csr_matrix(arg1).tobsr(blocksize=blocksize), dtype
            )
            return
        if isinstance(arg1, tuple) and len(arg1) == 3:
            data, indices, indptr = arg1
            data = np.asarray(data)
            if data.ndim != 3:
                raise ValueError("BSR data must be (nblocks, R, C)")
            validation.check_bsr_shape(shape, data.shape[1:])
            indices = validation.as_index_array(indices, "indices")
            indptr = validation.as_index_array(indptr, "indptr")
            if len(indices) != data.shape[0]:
                raise ValueError(
                    f"indices length ({len(indices)}) does not match the "
                    f"block count in data ({data.shape[0]})"
                )
            mat = sps.bsr_matrix((data, indices, indptr), shape=shape)
            self._init_from_scipy(mat, dtype)
            return
        raise TypeError(f"cannot construct bsr_matrix from {type(arg1).__name__}")

    def _init_from_scipy(self, mat, dtype):
        mat = mat.tobsr()
        mat.sort_indices()
        final_dtype = np.dtype(dtype) if dtype is not None else mat.dtype
        if final_dtype.kind not in "fc":
            final_dtype = np.float64
        spmatrix.__init__(self, mat.shape, final_dtype)
        rt = self._runtime
        self.blocksize = tuple(int(b) for b in mat.blocksize)
        R, C = self.blocksize
        nbrows = mat.shape[0] // R
        indptr = mat.indptr.astype(np.int64)
        pos_data = np.ascontiguousarray(np.stack([indptr[:-1], indptr[1:]], axis=1))
        self.pos = Store.create((nbrows, 2), np.int64, data=pos_data, runtime=rt, name="bsr_pos")
        nblocks = mat.indices.shape[0]
        self.crd = Store.create(
            (nblocks,), np.int64, data=mat.indices.astype(np.int64), runtime=rt, name="bsr_crd"
        )
        self.vals = Store.create(
            (nblocks, R * C),
            final_dtype,
            data=np.ascontiguousarray(mat.data.reshape(nblocks, R * C).astype(final_dtype)),
            runtime=rt,
            name="bsr_vals",
        )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored scalar entries (blocks x block area)."""
        R, C = self.blocksize
        return self.crd.shape[0] * R * C

    @property
    def nblocks(self) -> int:
        """Number of stored blocks."""
        return self.crd.shape[0]

    @property
    def data(self) -> ndarray:
        """The (nblocks, R*C) block values as a dense array."""
        return ndarray(self.vals)

    def _proc_kind(self):
        return self._runtime.scope.kind

    # ------------------------------------------------------------------
    def _matvec(self, x: ndarray) -> ndarray:
        out_dtype = np.result_type(self.dtype, x.dtype)
        vals = self.vals
        if out_dtype != self.dtype:
            vals = ndarray(self.vals).astype(out_dtype).store
        rt = self._runtime
        R, C = self.blocksize
        n, m = self.shape
        y = rnp.empty(n, dtype=out_dtype)
        # Block-row tiling of pos; scaled tiles for y; block-column
        # bounding image for x (dependent partitioning over crd data).
        tiling = Tiling.create(self.pos.region, rt.launch_colors)
        y_rects, x_rects = [], []
        rt.barrier()
        pos_data, crd_data = self.pos.data, self.crd.data
        for c in range(tiling.color_count):
            r = tiling.rect(c)
            brlo, brhi = r.lo[0], r.hi[0]
            y_rects.append(Rect((brlo * R,), (brhi * R,)))
            if brhi <= brlo:
                x_rects.append(Rect((0,), (0,)))
                continue
            jlo, jhi = int(pos_data[brlo, 0]), int(pos_data[brhi - 1, 1])
            if jhi <= jlo:
                x_rects.append(Rect((0,), (0,)))
                continue
            cols = crd_data[jlo:jhi]
            x_rects.append(Rect((int(cols.min()) * C,), ((int(cols.max()) + 1) * C,)))
        spec = get_registry().get("y(i)=A(i,j)*x(j)", BSR, self._proc_kind())
        launch(
            spec,
            rt,
            {"y": y.store, "pos": self.pos, "crd": self.crd, "vals": vals, "x": x.store},
            explicit_partitions={
                "y": ExplicitPartition(y.store.region, y_rects),
                "x": ExplicitPartition(x.store.region, x_rects),
            },
            scalars={"R": R, "C": C},
        )
        return y

    def _rmatvec(self, x: ndarray) -> ndarray:
        return self.tocsr()._rmatvec(x)

    def _matmat(self, X: ndarray) -> ndarray:
        return self.tocsr()._matmat(X)

    # ------------------------------------------------------------------
    def tobsr(self) -> "bsr_matrix":
        """Identity."""
        return self

    def tocsr(self):
        """Host conversion through scipy block expansion."""
        from repro.core.csr import csr_matrix

        self._runtime.barrier()
        import scipy.sparse as sps

        R, C = self.blocksize
        mat = sps.bsr_matrix(
            (
                self.vals.data.reshape(-1, R, C),
                self.crd.data,
                np.concatenate([self.pos.data[:, 0], self.pos.data[-1:, 1]])
                if self.pos.shape[0]
                else np.zeros(1, np.int64),
            ),
            shape=self.shape,
        )
        result = csr_matrix(mat.tocsr())
        self._note_convert("csr", result)
        return result

    def tocoo(self):
        """Convert through CSR."""
        return self.tocsr().tocoo()

    def toarray(self) -> np.ndarray:
        """Synchronize and densify."""
        return self.tocsr().toarray()

    todense = toarray

    def transpose(self):
        """Transpose through CSR."""
        return self.tocsr().transpose()

    def diagonal(self, k: int = 0) -> ndarray:
        """The main diagonal (through CSR)."""
        return self.tocsr().diagonal(k)

    def sum(self, axis: Optional[int] = None):
        """Sum of entries or per-axis sums (through CSR)."""
        return self.tocsr().sum(axis=axis)

    # ------------------------------------------------------------------
    def _with_values(self, vals: ndarray) -> "bsr_matrix":
        obj = bsr_matrix.__new__(bsr_matrix)
        spmatrix.__init__(obj, self.shape, vals.dtype)
        obj.blocksize = self.blocksize
        obj.pos, obj.crd, obj.vals = self.pos, self.crd, vals.store
        return obj

    def _scale(self, alpha) -> "bsr_matrix":
        return self._with_values(self.data * alpha)

    def _unary_values(self, fn) -> "bsr_matrix":
        return self._with_values(fn(self.data))

    def copy(self) -> "bsr_matrix":
        """A value-copying duplicate sharing structure."""
        return self._with_values(self.data.copy())

    def astype(self, dtype) -> "bsr_matrix":
        """A cast copy of the block values."""
        return self._with_values(self.data.astype(dtype))

    def conj(self) -> "bsr_matrix":
        """Complex conjugate of the block values."""
        if self.dtype.kind != "c":
            return self.copy()
        return self._with_values(self.data.conj())

    conjugate = conj


bsr_array = bsr_matrix
