"""Task fusion via expression templates (Sundram et al., cited in §6.1).

The paper attributes part of Legate's small-task overhead to launching
one task per element-wise operation and cites *task fusion* as the fix.
This module implements user-directed fusion: wrap operands in
:func:`lazy`, compose an arbitrary element-wise expression, and
:func:`evaluate` launches **one** task that computes the whole tree per
shard::

    from repro.numeric.lazy import lazy, evaluate
    y = evaluate(lazy(x) * 2.0 + lazy(b) / lazy(d))   # one launch

All leaf arrays are aligned by the constraint solver exactly as the
unfused chain would have been; numerics are bitwise identical for the
same evaluation order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constraints import AutoTask
from repro.numeric import optable
from repro.numeric.array import Scalar, is_scalar_like, ndarray
from repro.numeric.creation import _make


class LazyExpr:
    """A node of the deferred element-wise expression tree."""

    def __init__(self, op: str, args: Tuple[Any, ...]):
        self.op = op
        self.args = args

    # -- composition ----------------------------------------------------
    def _bin(self, other, op, reflect=False):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return LazyExpr(op, (other, self) if reflect else (self, other))

    def __add__(self, other):
        return self._bin(other, "add")

    def __radd__(self, other):
        return self._bin(other, "add", reflect=True)

    def __sub__(self, other):
        return self._bin(other, "sub")

    def __rsub__(self, other):
        return self._bin(other, "sub", reflect=True)

    def __mul__(self, other):
        return self._bin(other, "mul")

    def __rmul__(self, other):
        return self._bin(other, "mul", reflect=True)

    def __truediv__(self, other):
        return self._bin(other, "div")

    def __rtruediv__(self, other):
        return self._bin(other, "div", reflect=True)

    def __pow__(self, other):
        return self._bin(other, "pow")

    def __neg__(self):
        return LazyExpr("neg", (self,))

    def __abs__(self):
        return LazyExpr("abs", (self,))

    def sqrt(self):
        """Deferred element-wise square root."""
        return LazyExpr("sqrt", (self,))

    def exp(self):
        """Deferred element-wise exponential."""
        return LazyExpr("exp", (self,))

    # -- introspection ----------------------------------------------------
    def leaves(self) -> List[ndarray]:
        """The distinct array leaves of the tree."""
        out: List[ndarray] = []
        seen = set()

        def walk(node):
            if isinstance(node, LazyExpr):
                if node.op == "leaf":
                    arr = node.args[0]
                    if id(arr) not in seen:
                        seen.add(id(arr))
                        out.append(arr)
                else:
                    for arg in node.args:
                        walk(arg)

        walk(self)
        return out

    def op_count(self) -> int:
        """Number of fused operations."""
        if self.op in ("leaf", "scalar"):
            return 0
        return 1 + sum(
            a.op_count() for a in self.args if isinstance(a, LazyExpr)
        )

    def evaluate(self) -> ndarray:
        """Launch the single fused task."""
        return evaluate(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "leaf":
            return f"leaf{self.args[0].shape}"
        if self.op == "scalar":
            return repr(self.args[0])
        return f"{self.op}({', '.join(map(repr, self.args))})"


def lazy(arr: ndarray) -> LazyExpr:
    """Wrap a distributed array as an expression leaf."""
    if isinstance(arr, LazyExpr):
        return arr
    if not isinstance(arr, ndarray):
        raise TypeError("lazy() wraps distributed arrays")
    return LazyExpr("leaf", (arr,))


def _lift(value) -> Optional[LazyExpr]:
    if isinstance(value, LazyExpr):
        return value
    if isinstance(value, ndarray):
        return lazy(value)
    if isinstance(value, Scalar):
        return LazyExpr("scalar", (value,))
    if is_scalar_like(value):
        return LazyExpr("scalar", (value,))
    return None


def evaluate(expr: LazyExpr, out: Optional[ndarray] = None) -> ndarray:
    """Launch one fused task computing the expression tree."""
    if not isinstance(expr, LazyExpr):
        raise TypeError("evaluate() expects a lazy expression")
    leaves = expr.leaves()
    if not leaves:
        raise ValueError("expression has no array leaves")
    shape = leaves[0].shape
    for idx, leaf in enumerate(leaves):
        if leaf.shape != shape:
            ref = leaves[0].store.region.name or "in0"
            name = leaf.store.region.name or f"in{idx}"
            op = _op_of(expr, leaf)
            where = f" (operand of {op!r})" if op else ""
            raise ValueError(
                f"shape mismatch in fused expression: leaf {idx} "
                f"{name!r} has shape {leaf.shape}{where}, but leaf 0 "
                f"{ref!r} has shape {shape}"
            )
    rt = leaves[0].store.runtime
    dtype = np.result_type(*[leaf.dtype for leaf in leaves], np.float64)
    if out is None:
        out = _make(shape, dtype, runtime=rt)

    names = {id(leaf): f"in{idx}" for idx, leaf in enumerate(leaves)}
    scalars: Dict[str, Any] = {}

    # Flatten the tree into a postfix program the kernel interprets —
    # keeps the kernel picklable and avoids exec'ing user data.  Ops
    # resolve through the shared table (repro.numeric.optable), the
    # same callables the eager ufunc layer uses.
    program: List[Tuple[str, Any]] = []
    op_names: List[str] = []

    def emit(node: LazyExpr) -> None:
        if node.op == "leaf":
            program.append(("load", names[id(node.args[0])]))
        elif node.op == "scalar":
            val = node.args[0]
            key = f"s{len(scalars)}"
            scalars[key] = val.future if isinstance(val, Scalar) else val
            program.append(("scalar", key))
        elif optable.is_unop(node.op):
            emit(node.args[0])
            program.append(("un", node.op))
            op_names.append(optable.canonical(node.op))
        elif optable.is_binop(node.op):
            emit(node.args[0])
            emit(node.args[1])
            program.append(("bin", node.op))
            op_names.append(optable.canonical(node.op))
        else:  # pragma: no cover - composition guards this
            raise ValueError(f"unknown op {node.op!r}")

    emit(expr)

    def kernel(ctx):
        stack: List[Any] = []
        for kind, arg in program:
            if kind == "load":
                stack.append(ctx.view(arg))
            elif kind == "scalar":
                stack.append(ctx.scalar(arg))
            elif kind == "un":
                stack.append(optable.unop(arg)(stack.pop()))
            else:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(optable.binop(arg)(lhs, rhs))
        ctx.view("out")[...] = stack.pop()

    n_ops = expr.op_count()

    def cost(ctx):
        vol = ctx.rect("out").volume()
        nbytes = sum(
            ctx.rects[name].volume() * ctx.arrays[name].dtype.itemsize
            for name in ctx.rects
        )
        return float(vol * max(n_ops, 1)), nbytes

    task = AutoTask(rt, f"fused[{n_ops}ops]", kernel, cost)
    task.add_output("out", out.store)
    for leaf in leaves:
        task.add_input(names[id(leaf)], leaf.store)
        task.add_alignment_constraint(out.store, leaf.store)
    for key, val in scalars.items():
        task.add_scalar_arg(key, val)
    # The postfix program *is* the kernel body — expose it as the
    # launch's body IR so the dependence analyzer can body-merge a
    # lazy chain with its neighbours in the deferred window.
    task.set_pointwise(*op_names, expr=tuple(program), out="out")
    task.execute()
    return out


def _op_of(expr: LazyExpr, arr: ndarray) -> Optional[str]:
    """The op whose subtree first references ``arr`` (error context)."""
    found: List[str] = []

    def walk(node, parent: Optional[str]) -> None:
        if not isinstance(node, LazyExpr) or found:
            return
        if node.op == "leaf":
            if node.args[0] is arr and parent is not None:
                found.append(parent)
            return
        here = parent if node.op == "scalar" else node.op
        for arg in node.args:
            walk(arg, here)

    walk(expr, None)
    return found[0] if found else None
