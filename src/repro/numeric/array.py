"""The distributed ``ndarray`` and deferred ``Scalar`` types."""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.constraints import Store
from repro.legion.future import Future
from repro.legion.runtime import Runtime, get_runtime

newaxis = None


class Scalar:
    """A deferred scalar: the result of a distributed reduction.

    Arithmetic between scalars (and Python numbers) is free and lazy —
    ready times propagate through :class:`Future` combinators, and while
    the reduction is still pending in the runtime's deferred window the
    arithmetic itself is deferred with it.  Consuming the value
    (``.value``, ``float()``, ``format()``, comparisons, ``bool()``)
    flushes that window and synchronizes the issuing program with the
    reduction, putting allreduce latency on the critical path exactly
    when SciPy-style control flow demands it.  Nothing else
    synchronizes: passing a scalar to an array operation hands the
    future to the launch.
    """

    __slots__ = ("future", "runtime")

    def __init__(self, future: Future, runtime: Optional[Runtime] = None):
        self.future = future
        self.runtime = runtime or get_runtime()

    # -- synchronizing accessors ---------------------------------------
    @property
    def value(self):
        """Synchronize and return the underlying value."""
        return self.runtime.wait(self.future)

    def item(self):
        """Synchronize and return the Python value."""
        return self.value

    def __float__(self) -> float:
        return float(self.value)

    def __int__(self) -> int:
        return int(self.value)

    def __complex__(self) -> complex:
        return complex(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    # -- lazy arithmetic ------------------------------------------------
    @staticmethod
    def _lift(other) -> Optional[Future]:
        if isinstance(other, Scalar):
            return other.future
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return Future.ready(other)
        return None

    def _combine(self, other, fn) -> "Scalar":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Scalar(Future.combine(fn, self.future, rhs), self.runtime)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._combine(other, lambda a, b: b / a)

    def __pow__(self, other):
        return self._combine(other, lambda a, b: a**b)

    def __rpow__(self, other):
        return self._combine(other, lambda a, b: b**a)

    def __floordiv__(self, other):
        return self._combine(other, lambda a, b: a // b)

    def __rfloordiv__(self, other):
        return self._combine(other, lambda a, b: b // a)

    def __mod__(self, other):
        return self._combine(other, lambda a, b: a % b)

    def __rmod__(self, other):
        return self._combine(other, lambda a, b: b % a)

    def __neg__(self):
        return Scalar(self.future.map(lambda v: -v), self.runtime)

    def __abs__(self):
        return Scalar(self.future.map(abs), self.runtime)

    def sqrt(self) -> "Scalar":
        """Deferred square root."""
        return Scalar(self.future.map(lambda v: v**0.5), self.runtime)

    def conjugate(self) -> "Scalar":
        """Deferred complex conjugate."""
        return Scalar(self.future.map(np.conjugate), self.runtime)

    @property
    def real(self) -> "Scalar":
        """Deferred real part."""
        return Scalar(self.future.map(np.real), self.runtime)

    @property
    def imag(self) -> "Scalar":
        """Deferred imaginary part."""
        return Scalar(self.future.map(np.imag), self.runtime)

    # -- synchronizing comparisons --------------------------------------
    def __lt__(self, other):
        return self.value < _scalar_value(other)

    def __le__(self, other):
        return self.value <= _scalar_value(other)

    def __gt__(self, other):
        return self.value > _scalar_value(other)

    def __ge__(self, other):
        return self.value >= _scalar_value(other)

    def __eq__(self, other):
        return self.value == _scalar_value(other)

    def __ne__(self, other):
        return self.value != _scalar_value(other)

    def __hash__(self):  # pragma: no cover - rarely used
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scalar({self.future!r})"


def _scalar_value(x):
    return x.value if isinstance(x, Scalar) else x


ScalarLike = Union[int, float, complex, Scalar, np.number]


def is_scalar_like(x) -> bool:
    """True for Python/NumPy scalars and deferred Scalars."""
    return isinstance(
        x, (int, float, complex, Scalar, np.integer, np.floating, np.complexfloating, np.bool_)
    )


class ndarray:
    """A distributed dense array backed by a store."""

    __slots__ = ("store",)

    def __init__(self, store: Store):
        self.store = store

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape."""
        return self.store.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self.store.dtype

    @property
    def ndim(self) -> int:
        """Number of dimensions (1 or 2)."""
        return self.store.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.store.size

    @property
    def nbytes(self) -> int:
        """Logical size in bytes."""
        return self.store.nbytes

    @property
    def runtime(self) -> Runtime:
        """The runtime this array belongs to."""
        return self.store.runtime

    def __len__(self) -> int:
        return self.shape[0]

    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Synchronize and return a host copy of the exact contents."""
        self.runtime.barrier()
        return self.store.data.copy()

    __array__ = to_numpy

    def item(self):
        """Synchronize and return the single element."""
        if self.size != 1:
            raise ValueError("item() requires a single-element array")
        self.runtime.barrier()
        return self.store.data.reshape(-1)[0].item()

    def fill(self, value) -> None:
        """Distributed fill with a constant."""
        from repro.numeric.creation import fill_inplace

        fill_inplace(self, value)

    def copy(self) -> "ndarray":
        """A distributed copy."""
        from repro.numeric.ufunc import positive_copy

        return positive_copy(self)

    def astype(self, dtype) -> "ndarray":
        """A cast copy."""
        from repro.numeric.ufunc import astype

        return astype(self, dtype)

    def conj(self) -> "ndarray":
        """Element-wise complex conjugate."""
        from repro.numeric.ufunc import conj

        return conj(self)

    @property
    def real(self) -> "ndarray":
        """Real part."""
        from repro.numeric.ufunc import real

        return real(self)

    @property
    def imag(self) -> "ndarray":
        """Imaginary part."""
        from repro.numeric.ufunc import imag

        return imag(self)

    @property
    def T(self) -> "ndarray":
        """2-D transpose (a copy task; all-to-all-shaped movement)."""
        from repro.numeric.indexing import transpose

        return transpose(self)

    def sum(self):
        """Sum of all elements (a deferred Scalar)."""
        from repro.numeric.reductions import sum as _sum

        return _sum(self)

    def max(self):
        """Maximum element (a deferred Scalar)."""
        from repro.numeric.reductions import amax

        return amax(self)

    def min(self):
        """Minimum element (a deferred Scalar)."""
        from repro.numeric.reductions import amin

        return amin(self)

    def mean(self):
        """Mean of all elements (a deferred Scalar)."""
        from repro.numeric.reductions import mean

        return mean(self)

    def dot(self, other) -> Scalar:
        """Inner product with another 1-D array."""
        from repro.numeric.reductions import dot

        return dot(self, other)

    def cumsum(self, dtype=None) -> "ndarray":
        """Distributed inclusive prefix sum."""
        from repro.numeric.scan import cumsum

        return cumsum(self, dtype=dtype)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _binary(self, other, name, reflect=False):
        from repro.numeric import ufunc

        op = getattr(ufunc, name)
        if isinstance(other, ndarray) or is_scalar_like(other):
            if reflect:
                return op(other, self)
            return op(self, other)
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", reflect=True)

    def __sub__(self, other):
        return self._binary(other, "subtract")

    def __rsub__(self, other):
        return self._binary(other, "subtract", reflect=True)

    def __mul__(self, other):
        return self._binary(other, "multiply")

    def __rmul__(self, other):
        return self._binary(other, "multiply", reflect=True)

    def __truediv__(self, other):
        return self._binary(other, "divide")

    def __rtruediv__(self, other):
        return self._binary(other, "divide", reflect=True)

    def __pow__(self, other):
        return self._binary(other, "power")

    def __neg__(self):
        from repro.numeric.ufunc import negative

        return negative(self)

    def __abs__(self):
        from repro.numeric.ufunc import absolute

        return absolute(self)

    # In-place operators reuse the binary kernels with ``out=self``.
    def _inplace(self, other, name):
        from repro.numeric import ufunc

        op = getattr(ufunc, name)
        result = op(self, other, out=self)
        if result is NotImplemented:  # pragma: no cover - defensive
            raise TypeError(f"unsupported operand for in-place {name}")
        return self

    def __iadd__(self, other):
        return self._inplace(other, "add")

    def __isub__(self, other):
        return self._inplace(other, "subtract")

    def __imul__(self, other):
        return self._inplace(other, "multiply")

    def __itruediv__(self, other):
        return self._inplace(other, "divide")

    def __matmul__(self, other):
        from repro.numeric.indexing import matmul

        if isinstance(other, ndarray):
            return matmul(self, other)
        return NotImplemented

    # Comparisons return distributed boolean arrays (NumPy semantics).
    def __lt__(self, other):
        return self._binary(other, "less")

    def __le__(self, other):
        return self._binary(other, "less_equal")

    def __gt__(self, other):
        return self._binary(other, "greater")

    def __ge__(self, other):
        return self._binary(other, "greater_equal")

    def __eq__(self, other):
        if isinstance(other, ndarray) or is_scalar_like(other):
            return self._binary(other, "equal")
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, ndarray) or is_scalar_like(other):
            return self._binary(other, "not_equal")
        return NotImplemented

    __hash__ = None  # mutable container with == returning arrays

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        from repro.numeric.indexing import getitem

        return getitem(self, key)

    def __setitem__(self, key, value):
        from repro.numeric.indexing import setitem

        setitem(self, key, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ndarray(shape={self.shape}, dtype={self.dtype})"


def from_store(store: Store) -> ndarray:
    """Wrap an existing store as an ndarray."""
    return ndarray(store)
