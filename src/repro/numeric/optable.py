"""The element-wise operator table shared by every fusion consumer.

Three layers interpret element-wise operator names and must agree on
what each name computes:

* the eager ufunc layer (:mod:`repro.numeric.ufunc`) — one launch per op;
* the user-directed expression-template fuser (:mod:`repro.numeric.lazy`);
* the automatic fusion engine (:mod:`repro.legion.fusion`), which tags
  launches with the op names it merged and reports them through the
  profiler and advisor.

This module is the single source of truth: canonical NumPy callables
keyed by the ufunc-style long names, plus the short aliases the lazy
expression tree uses (``mul`` for ``multiply``, ...).  Keeping one table
means a fused kernel can never disagree with the unfused chain about
what an op computes — the bitwise-equivalence guarantee reduces to
"same callables, same order".
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

#: Binary element-wise operators, by canonical (ufunc) name.
BINOPS: Dict[str, Callable] = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": np.divide,
    "power": np.power,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "greater": np.greater,
    "greater_equal": np.greater_equal,
    "less": np.less,
    "less_equal": np.less_equal,
    "equal": np.equal,
    "not_equal": np.not_equal,
}

#: Unary element-wise operators, by canonical (ufunc) name.
UNOPS: Dict[str, Callable] = {
    "negative": np.negative,
    "absolute": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "square": np.square,
    "sign": np.sign,
    "conjugate": np.conjugate,
    "real": np.real,
    "imag": np.imag,
    "floor": np.floor,
    "ceil": np.ceil,
    "rint": np.rint,
    "isnan": np.isnan,
    "isfinite": np.isfinite,
    "copy": np.positive,
}



def _sum_part(v):
    return v.sum()


def _prod_part(v):
    return v.prod() if v.size else v.dtype.type(1)


def _amax_part(v):
    return v.max() if v.size else -np.inf


def _amin_part(v):
    return v.min() if v.size else np.inf


def _dot_part(va, vb):
    return np.dot(va, vb) if va.size else 0.0


def _vdot_part(va, vb):
    return np.vdot(va, vb) if va.size else 0.0


def _norm2_part(v):
    if not v.size:
        return 0.0
    return float(np.real(np.vdot(v, v)))


def _count_nonzero_part(v):
    return int(np.count_nonzero(v))


#: Per-shard partials of the scalar reductions, by task name: what one
#: shard computes over its operand views before the cross-shard fold.
#: A reduction launch's body IR ends in ``("part", name)``; its own
#: kernel and a generated nest's epilogue call the same entry.
PARTIALS: Dict[str, Callable] = {
    "sum": _sum_part,
    "prod": _prod_part,
    "amax": _amax_part,
    "amin": _amin_part,
    "dot": _dot_part,
    "vdot": _vdot_part,
    "norm2": _norm2_part,
    "count_nonzero": _count_nonzero_part,
}

#: Short spellings used by the lazy expression tree.
ALIASES: Dict[str, str] = {
    "sub": "subtract",
    "mul": "multiply",
    "div": "divide",
    "pow": "power",
    "neg": "negative",
    "abs": "absolute",
    "conj": "conjugate",
}


def canonical(name: str) -> str:
    """The canonical spelling of an op name (aliases resolved)."""
    return ALIASES.get(name, name)


def binop(name: str) -> Callable:
    """The NumPy callable of a binary op name (aliases accepted)."""
    return BINOPS[canonical(name)]


def unop(name: str) -> Callable:
    """The NumPy callable of a unary op name (aliases accepted)."""
    return UNOPS[canonical(name)]


def is_binop(name: str) -> bool:
    """Whether the name (or alias) is a known binary op."""
    return canonical(name) in BINOPS


def is_unop(name: str) -> bool:
    """Whether the name (or alias) is a known unary op."""
    return canonical(name) in UNOPS
