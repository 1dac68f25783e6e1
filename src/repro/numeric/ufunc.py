"""Element-wise operations: every call is one distributed task launch.

Binary operations align all operands (the solver reuses whatever
partition the operands were last written with), scalars — including
deferred :class:`~repro.numeric.array.Scalar` reduction results — travel
as task arguments, and an ``out=`` operand turns the launch into an
in-place update.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constraints import AutoTask
from repro.numeric import optable
from repro.numeric.array import Scalar, ndarray
from repro.numeric.creation import _make


def _binary_kernel(ctx):
    op = ctx.scalar("op")
    a = ctx.view("a") if "a" in ctx.rects else ctx.scalar("a")
    b = ctx.view("b") if "b" in ctx.rects else ctx.scalar("b")
    out = ctx.view("out")
    out[...] = op(a, b)


def _unary_kernel(ctx):
    op = ctx.scalar("op")
    out = ctx.view("out")
    out[...] = op(ctx.view("a"))


def _elementwise_cost(ctx):
    nbytes = 0.0
    vol = ctx.rect("out").volume()
    for name in ctx.rects:
        nbytes += ctx.rects[name].volume() * ctx.arrays[name].dtype.itemsize
    return float(vol), nbytes


def _scalar_dtype(value, other_dtype: np.dtype) -> np.dtype:
    if isinstance(value, Scalar):
        # Deferred scalars are reduction results: real unless the data
        # they reduce over was complex, which the operand dtype reflects.
        return other_dtype
    return np.result_type(other_dtype, np.min_scalar_type(value) if isinstance(value, (int,)) else type(value))


def _binary(name: str, np_op, a, b, out: Optional[ndarray] = None) -> ndarray:
    # Known names resolve through the shared op table (repro.numeric
    # .optable) so every fusion consumer agrees on the callable;
    # unknown names (clip-style lambdas) pass through.
    np_op = optable.BINOPS.get(optable.canonical(name), np_op)
    a_arr = isinstance(a, ndarray)
    b_arr = isinstance(b, ndarray)
    if not a_arr and not b_arr:
        raise TypeError("at least one operand must be an ndarray")
    if a_arr and b_arr and a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a_arr and b_arr:
        dtype = np.result_type(a.dtype, b.dtype)
        rt = a.store.runtime
        shape = a.shape
    elif a_arr:
        dtype = _scalar_dtype(b, a.dtype)
        rt = a.store.runtime
        shape = a.shape
    else:
        dtype = _scalar_dtype(a, b.dtype)
        rt = b.store.runtime
        shape = b.shape

    if out is None:
        out = _make(shape, dtype, runtime=rt)
    elif out.shape != shape:
        raise ValueError("out= has the wrong shape")

    task = AutoTask(rt, name, _binary_kernel, _elementwise_cost)
    in_place = (a_arr and out.store is a.store) or (b_arr and out.store is b.store)
    task.add_output("out", out.store, discard=not in_place)
    if a_arr:
        # Operands may alias the output (in-place update); the runtime
        # handles the same region under multiple names.
        task.add_input("a", a.store)
        task.add_alignment_constraint(out.store, a.store)
    else:
        task.add_scalar_arg("a", a.future if isinstance(a, Scalar) else a)
    if b_arr:
        task.add_input("b", b.store)
        task.add_alignment_constraint(out.store, b.store)
    else:
        task.add_scalar_arg("b", b.future if isinstance(b, Scalar) else b)
    task.add_scalar_arg("op", np_op)
    canon = optable.canonical(name)
    if optable.BINOPS.get(canon) is np_op:
        # Table-resolved op: expose the body IR so the dependence
        # analyzer can body-merge a fused group into one loop nest.
        # Unknown callables (clip-style lambdas) stay opaque.
        expr = (
            ("load" if a_arr else "scalar", "a"),
            ("load" if b_arr else "scalar", "b"),
            ("bin", canon),
        )
        task.set_pointwise(name, expr=expr, out="out")
    else:
        task.set_pointwise(name)
    task.execute()
    return out


def _unary(name: str, np_op, a: ndarray, out: Optional[ndarray] = None, dtype=None) -> ndarray:
    np_op = optable.UNOPS.get(optable.canonical(name), np_op)
    if not isinstance(a, ndarray):
        if isinstance(a, Scalar):
            return Scalar(a.future.map(np_op), a.runtime)
        return np_op(a)
    rt = a.store.runtime
    dtype = np.dtype(dtype) if dtype is not None else a.dtype
    if out is None:
        out = _make(a.shape, dtype, runtime=rt)
    task = AutoTask(rt, name, _unary_kernel, _elementwise_cost)
    in_place = out.store is a.store
    task.add_output("out", out.store, discard=not in_place)
    task.add_input("a", a.store)
    task.add_alignment_constraint(out.store, a.store)
    task.add_scalar_arg("op", np_op)
    canon = optable.canonical(name)
    if optable.UNOPS.get(canon) is np_op:
        task.set_pointwise(
            name, expr=(("load", "a"), ("un", canon)), out="out"
        )
    else:
        task.set_pointwise(name)
    task.execute()
    return out


# ----------------------------------------------------------------------
# Public ufuncs
# ----------------------------------------------------------------------
def add(a, b, out=None):
    """Element-wise addition (``numpy.add``)."""
    return _binary("add", np.add, a, b, out)


def subtract(a, b, out=None):
    """Element-wise subtraction."""
    return _binary("subtract", np.subtract, a, b, out)


def multiply(a, b, out=None):
    """Element-wise multiplication."""
    return _binary("multiply", np.multiply, a, b, out)


def divide(a, b, out=None):
    """Element-wise division."""
    return _binary("divide", np.divide, a, b, out)


true_divide = divide


def power(a, b, out=None):
    """Element-wise power."""
    return _binary("power", np.power, a, b, out)


def maximum(a, b, out=None):
    """Element-wise maximum."""
    return _binary("maximum", np.maximum, a, b, out)


def minimum(a, b, out=None):
    """Element-wise minimum."""
    return _binary("minimum", np.minimum, a, b, out)


def negative(a, out=None):
    """Element-wise negation."""
    return _unary("negative", np.negative, a, out)


def absolute(a, out=None):
    """Element-wise absolute value (real output for complex input)."""
    if isinstance(a, ndarray) and np.issubdtype(a.dtype, np.complexfloating):
        return _unary("absolute", np.abs, a, out, dtype=np.float64)
    return _unary("absolute", np.abs, a, out)


def sqrt(a, out=None):
    """Element-wise square root."""
    return _unary("sqrt", np.sqrt, a, out)


def exp(a, out=None):
    """Element-wise exponential."""
    return _unary("exp", np.exp, a, out)


def log(a, out=None):
    """Element-wise natural logarithm."""
    return _unary("log", np.log, a, out)


def sin(a, out=None):
    """Element-wise sine."""
    return _unary("sin", np.sin, a, out)


def cos(a, out=None):
    """Element-wise cosine."""
    return _unary("cos", np.cos, a, out)


def tanh(a, out=None):
    """Element-wise hyperbolic tangent."""
    return _unary("tanh", np.tanh, a, out)


def square(a, out=None):
    """Element-wise square."""
    return _unary("square", np.square, a, out)


def sign(a, out=None):
    """Element-wise sign."""
    return _unary("sign", np.sign, a, out)


def conjugate(a, out=None):
    """Element-wise complex conjugate."""
    return _unary("conjugate", np.conjugate, a, out)


conj = conjugate


def real(a):
    """Real part (real dtype for complex input)."""
    if isinstance(a, ndarray) and np.issubdtype(a.dtype, np.complexfloating):
        return _unary("real", np.real, a, dtype=np.float64)
    return _unary("real", np.real, a)


def imag(a):
    """Imaginary part (real dtype for complex input)."""
    if isinstance(a, ndarray) and np.issubdtype(a.dtype, np.complexfloating):
        return _unary("imag", np.imag, a, dtype=np.float64)
    return _unary("imag", np.imag, a)


def floor(a, out=None):
    """Element-wise floor."""
    return _unary("floor", np.floor, a, out)


def ceil(a, out=None):
    """Element-wise ceiling."""
    return _unary("ceil", np.ceil, a, out)


def rint(a, out=None):
    """Element-wise round-to-nearest-even."""
    return _unary("rint", np.rint, a, out)


def isnan(a):
    """Element-wise NaN test (boolean output)."""
    return _unary("isnan", np.isnan, a, dtype=np.bool_)


def isfinite(a):
    """Element-wise finiteness test (boolean output)."""
    return _unary("isfinite", np.isfinite, a, dtype=np.bool_)


def clip(a: ndarray, a_min, a_max, out=None):
    """Element-wise clamp (``numpy.clip``); scalar bounds only."""
    lo = a_min.value if isinstance(a_min, Scalar) else a_min
    hi = a_max.value if isinstance(a_max, Scalar) else a_max
    return _unary("clip", lambda v: np.clip(v, lo, hi), a, out)


def greater(a, b):
    """Element-wise ``>`` (boolean output)."""
    return _binary("greater", np.greater, a, b, _bool_out(a, b))


def greater_equal(a, b):
    """Element-wise ``>=`` (boolean output)."""
    return _binary("greater_equal", np.greater_equal, a, b, _bool_out(a, b))


def less(a, b):
    """Element-wise ``<`` (boolean output)."""
    return _binary("less", np.less, a, b, _bool_out(a, b))


def less_equal(a, b):
    """Element-wise ``<=`` (boolean output)."""
    return _binary("less_equal", np.less_equal, a, b, _bool_out(a, b))


def equal(a, b):
    """Element-wise ``==`` (boolean output)."""
    return _binary("equal", np.equal, a, b, _bool_out(a, b))


def not_equal(a, b):
    """Element-wise ``!=`` (boolean output)."""
    return _binary("not_equal", np.not_equal, a, b, _bool_out(a, b))


def _bool_out(a, b) -> ndarray:
    ref = a if isinstance(a, ndarray) else b
    return _make(ref.shape, np.bool_, runtime=ref.store.runtime)


def where(cond: ndarray, a, b) -> ndarray:
    """Element-wise select (``numpy.where`` with three arguments)."""
    if not isinstance(cond, ndarray):
        raise TypeError("where expects a distributed boolean condition")
    rt = cond.store.runtime
    ref = a if isinstance(a, ndarray) else (b if isinstance(b, ndarray) else None)
    dtype = np.result_type(
        a.dtype if isinstance(a, ndarray) else type(a),
        b.dtype if isinstance(b, ndarray) else type(b),
    )
    out = _make(cond.shape, dtype, runtime=rt)
    from repro.constraints import AutoTask

    def kernel(ctx):
        av = ctx.view("a") if "a" in ctx.rects else ctx.scalar("a")
        bv = ctx.view("b") if "b" in ctx.rects else ctx.scalar("b")
        ctx.view("out")[...] = np.where(ctx.view("cond"), av, bv)

    task = AutoTask(rt, "where", kernel, _elementwise_cost)
    task.add_output("out", out.store)
    task.add_input("cond", cond.store)
    task.add_alignment_constraint(out.store, cond.store)
    for name, operand in (("a", a), ("b", b)):
        if isinstance(operand, ndarray):
            task.add_input(name, operand.store)
            task.add_alignment_constraint(out.store, operand.store)
        else:
            task.add_scalar_arg(name, operand.future if isinstance(operand, Scalar) else operand)
    task.set_pointwise("where")
    task.execute()
    return out


def positive_copy(a: ndarray) -> ndarray:
    """A distributed copy (one pass)."""
    return _unary("copy", np.positive, a)


def astype(a: ndarray, dtype) -> ndarray:
    """A cast copy to another dtype."""
    dtype = np.dtype(dtype)
    if dtype == a.dtype:
        return positive_copy(a)
    return _unary("astype", lambda v: v.astype(dtype), a, dtype=dtype)
