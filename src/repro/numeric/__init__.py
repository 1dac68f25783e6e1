"""``repro.numeric``: a distributed, deferred-execution NumPy subset.

This is the reproduction's cuNumeric (paper §2.3): dense arrays are
backed by regions, partitioned through the same constraint system as the
sparse library, and every operation is a task launch.  The two libraries
never call into each other's internals — they compose only through
stores, key partitions and the shared mapping layer, which is the
paper's central composability claim.

The implemented subset is what the paper's workloads use: element-wise
arithmetic (real and complex), reductions (sum/min/max/dot/norm),
creation routines, random number generation, gather/scatter by index
arrays, and basic slicing.  Deviations from NumPy semantics (slices are
copies, not views) are listed in DESIGN.md.
"""

from repro.numeric import linalg, random
from repro.numeric.array import Scalar, ndarray, newaxis
from repro.numeric.creation import (
    arange,
    array,
    asarray,
    empty,
    empty_like,
    full,
    full_like,
    linspace,
    ones,
    ones_like,
    zeros,
    zeros_like,
)
from repro.numeric.indexing import concatenate, gather_rows, scatter_add
from repro.numeric.reductions import (
    allclose,
    amax,
    amin,
    argmax,
    argmin,
    array_equal,
    count_nonzero,
    dot,
    mean,
    prod,
    sum,
    vdot,
)
from repro.numeric.lazy import LazyExpr, evaluate, lazy
from repro.numeric.scan import cumsum, exclusive_scan
from repro.numeric.ufunc import (
    absolute,
    add,
    ceil,
    clip,
    conj,
    conjugate,
    cos,
    divide,
    equal,
    exp,
    floor,
    greater,
    greater_equal,
    imag,
    isfinite,
    isnan,
    less,
    less_equal,
    log,
    maximum,
    minimum,
    multiply,
    negative,
    not_equal,
    power,
    real,
    rint,
    sign,
    sin,
    sqrt,
    square,
    subtract,
    tanh,
    true_divide,
    where,
)

abs = absolute  # noqa: A001 - mirrors the NumPy namespace

__all__ = [
    "Scalar",
    "absolute",
    "abs",
    "add",
    "amax",
    "amin",
    "arange",
    "array",
    "asarray",
    "conj",
    "conjugate",
    "cos",
    "cumsum",
    "divide",
    "dot",
    "empty",
    "empty_like",
    "exclusive_scan",
    "exp",
    "full",
    "full_like",
    "gather_rows",
    "imag",
    "linalg",
    "linspace",
    "log",
    "maximum",
    "mean",
    "minimum",
    "multiply",
    "ndarray",
    "negative",
    "newaxis",
    "ones",
    "ones_like",
    "power",
    "prod",
    "random",
    "real",
    "scatter_add",
    "sign",
    "sin",
    "sqrt",
    "square",
    "subtract",
    "sum",
    "tanh",
    "true_divide",
    "vdot",
    "zeros",
    "zeros_like",
] + [
    'LazyExpr', 'evaluate', 'lazy',
    'allclose', 'argmax', 'argmin', 'array_equal', 'ceil', 'clip', 'concatenate', 'count_nonzero', 'equal', 'floor', 'greater', 'greater_equal', 'isfinite', 'isnan', 'less', 'less_equal', 'not_equal', 'rint', 'where',
]
