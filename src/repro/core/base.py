"""The sparse matrix base class: shared behaviour and dispatch.

Follows ``scipy.sparse.spmatrix`` semantics: ``*`` is matrix
multiplication, ``A.multiply(B)`` is element-wise, ``A @ x`` works with
:mod:`repro.numeric` arrays and returns them.  Format classes implement
the small abstract surface (`_matvec`, conversions); everything else —
operator dispatch, scalar algebra via the dense library, reductions —
lives here and is inherited, mirroring how the paper *ported* most of
the SciPy API onto a handful of generated kernels (§5.2).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.legion.runtime import Runtime, get_runtime
from repro.numeric.array import Scalar, is_scalar_like, ndarray


def issparse(x) -> bool:
    """True for this package's sparse matrices."""
    return isinstance(x, spmatrix)


class spmatrix:
    """Abstract distributed sparse matrix."""

    format: str = "base"

    def __init__(self, shape: Tuple[int, int], dtype):
        self._shape = (int(shape[0]), int(shape[1]))
        self._dtype = np.dtype(dtype)
        self._runtime: Runtime = get_runtime()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix shape (rows, cols)."""
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self._dtype

    @property
    def ndim(self) -> int:
        """Always 2."""
        return 2

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        raise NotImplementedError

    def getnnz(self) -> int:
        """Number of stored entries (method form)."""
        return self.nnz

    @property
    def runtime(self) -> Runtime:
        """The runtime this matrix belongs to."""
        return self._runtime

    def _advisor_note(self, category: str, **info) -> None:
        """Annotate an advisor plan trace, when one is capturing.

        Format classes call this at densification and conversion sites;
        with no trace attached it is a single attribute check.
        """
        plan = getattr(self._runtime, "plan_trace", None)
        if plan is not None:
            plan.record_note(category, **info)

    def _note_densify(self, where: str) -> None:
        rows, cols = self.shape
        self._advisor_note(
            "densify",
            where=where,
            fmt=self.format,
            shape=self.shape,
            nbytes=rows * cols * self.dtype.itemsize,
        )

    def _note_convert(self, dst_fmt: str, result=None) -> None:
        self._advisor_note(
            "convert",
            src_fmt=self.format,
            dst_fmt=dst_fmt,
            src_id=id(self),
            dst_id=None if result is None else id(result),
            nbytes=self.nnz * self.dtype.itemsize,
        )

    # -- conversions (each format implements tocoo + tocsr) -------------
    def tocoo(self):
        """Convert to COO."""
        raise NotImplementedError

    def tocsr(self):
        """Convert to CSR."""
        raise NotImplementedError

    def tocsc(self):
        """Convert to CSC (through CSR)."""
        return self.tocsr().tocsc()

    def todia(self):
        """Convert to DIA (through COO)."""
        return self.tocoo().todia()

    def tobsr(self):
        """Convert to BSR (through CSR)."""
        from repro.core.bsr import bsr_matrix

        return bsr_matrix(self)

    def asformat(self, fmt: Optional[str]):
        """Convert to the named format (no-op if already or ``None``)."""
        if fmt is None or fmt == self.format:
            return self
        if fmt not in ("csr", "csc", "coo", "dia", "bsr"):
            raise ValueError(f"Format {fmt!r} is unknown.")
        return getattr(self, f"to{fmt}")()

    def toarray(self) -> np.ndarray:
        """Synchronize and densify to a host NumPy array."""
        return self.tocoo().toarray()

    todense = toarray

    def copy(self):
        """A value-copying duplicate (structure shared)."""
        raise NotImplementedError

    def astype(self, dtype):
        """A cast copy of the values."""
        raise NotImplementedError

    def conj(self):
        """Complex conjugate of the values."""
        raise NotImplementedError

    conjugate = conj

    # -- structure queries ----------------------------------------------
    def diagonal(self, k: int = 0) -> ndarray:
        """The main diagonal as a distributed vector."""
        if k != 0:
            raise NotImplementedError("only the main diagonal is supported")
        return self.tocsr().diagonal()

    def sum(self, axis: Optional[int] = None):
        """Sum of all entries, or per-axis sums."""
        return self.tocsr().sum(axis=axis)

    def mean(self, axis: Optional[int] = None):
        """Mean over all positions (zeros included), or per axis."""
        total = self.sum(axis=axis)
        if axis is None:
            return total / (self.shape[0] * self.shape[1])
        return total / self.shape[axis]

    @property
    def T(self):
        """Transpose (free for CSR<->CSC and COO)."""
        return self.transpose()

    def transpose(self):
        """Transpose (free for CSR<->CSC and COO)."""
        raise NotImplementedError

    @property
    def H(self):
        """Conjugate transpose."""
        return self.conj().transpose()

    # -- products ---------------------------------------------------------
    def _matvec(self, x: ndarray) -> ndarray:
        raise NotImplementedError

    def _rmatvec(self, x: ndarray) -> ndarray:
        """x @ A, i.e. A.T @ x."""
        return self.transpose()._matvec(x)

    def _matmat(self, X: ndarray) -> ndarray:
        raise NotImplementedError

    def dot(self, other):
        """Matrix product (``A @ other``)."""
        return self @ other

    def __matmul__(self, other):
        if isinstance(other, ndarray):
            if other.ndim == 1:
                if other.shape[0] != self.shape[1]:
                    raise ValueError(
                        f"dimension mismatch: {self.shape} @ {other.shape}"
                    )
                return self._matvec(other)
            if other.shape[0] != self.shape[1]:
                raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
            return self._matmat(other)
        if isinstance(other, np.ndarray):
            return self @ rnp.array(other)
        if issparse(other):
            return self._matmat_sparse(other)
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, ndarray) and other.ndim == 1:
            return self._rmatvec(other)
        if isinstance(other, np.ndarray) and other.ndim == 1:
            return self._rmatvec(rnp.array(other))
        return NotImplemented

    def _matmat_sparse(self, other: "spmatrix"):
        return self.tocsr()._matmat_sparse(other)

    # -- scipy.sparse "matrix" semantics: * is matmul --------------------
    def __mul__(self, other):
        if is_scalar_like(other):
            return self._scale(other)
        return self.__matmul__(other)

    def __rmul__(self, other):
        if is_scalar_like(other):
            return self._scale(other)
        return self.__rmatmul__(other)

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self._scale(Scalar(other.future.map(lambda v: 1.0 / v), other.runtime))
        if is_scalar_like(other):
            return self._scale(1.0 / other)
        return NotImplemented

    def __neg__(self):
        return self._scale(-1.0)

    def _scale(self, alpha):
        raise NotImplementedError

    # -- element-wise algebra ---------------------------------------------
    def __add__(self, other):
        if issparse(other):
            return self.tocsr()._add_sparse(other.tocsr(), 1.0)
        if isinstance(other, (ndarray, np.ndarray)) and np.ndim(other) == 2:
            return self.tocsr()._add_dense(other)
        if is_scalar_like(other) and not isinstance(other, Scalar) and other == 0:
            return self.copy()
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if issparse(other):
            return self.tocsr()._add_sparse(other.tocsr(), -1.0)
        return NotImplemented

    def __rsub__(self, other):
        if issparse(other):
            return other.tocsr()._add_sparse(self.tocsr(), -1.0)
        return NotImplemented

    def multiply(self, other):
        """Element-wise (Hadamard) product."""
        if is_scalar_like(other):
            return self._scale(other)
        if issparse(other):
            return self.tocsr()._multiply_sparse(other.tocsr())
        if isinstance(other, (ndarray, np.ndarray)):
            return self.tocsr()._multiply_dense(other)
        return NotImplemented

    def maximum(self, other):
        """Element-wise maximum on the structural union."""
        if issparse(other):
            return self.tocsr()._binary_union(other.tocsr(), "maximum")
        return NotImplemented

    def minimum(self, other):
        """Element-wise minimum on the structural union."""
        if issparse(other):
            return self.tocsr()._binary_union(other.tocsr(), "minimum")
        return NotImplemented

    def power(self, n):
        """Element-wise power of the stored values."""
        return self._unary_values(lambda v: v**n)

    def _unary_values(self, fn):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.shape[0]}x{self.shape[1]} sparse matrix of type {self.dtype} "
            f"with {self.nnz} stored elements in {self.format.upper()} format>"
        )
