"""Reverse-mode autodiff over the fused expression templates (a test driver).

Build a scalar loss ``sum(expr)`` over a
:class:`~repro.numeric.lazy.LazyExpr` tree and :func:`grad` returns the
gradient with respect to each requested leaf — each adjoint itself a
fused expression evaluated in one task.  ``test_autograd.py`` checks
the gradients analytically and against finite differences, which puts
nested ``lazy`` trees (exp, log, division, powers, repeated leaves)
through :func:`~repro.numeric.lazy.evaluate`.  No workload differentiates:
``repro.apps.matfact`` writes the Fig. 12 gradients by hand, as the
paper's authors hand-optimized theirs.

Example (the value-space half of the matrix-factorization gradient)::

    pred, obs = lazy(pred_vals), lazy(obs_vals)
    loss, grads = grad((pred - obs) * (pred - obs), wrt=[pred_vals])
    # grads[0] == 2 * (pred_vals - obs_vals)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


import repro.numeric as rnp
from repro.numeric.array import Scalar, ndarray
from repro.numeric.lazy import LazyExpr, evaluate


class DifferentiationError(ValueError):
    """The expression is not differentiable as written."""
    pass


def _zeros_like_expr(leaf: ndarray) -> LazyExpr:
    return LazyExpr("scalar", (0.0,))


def _vjp(node: LazyExpr, adjoint: LazyExpr) -> List[Tuple[LazyExpr, LazyExpr]]:
    """Children of ``node`` with their adjoint contributions."""
    op, args = node.op, node.args
    if op in ("leaf", "scalar"):
        return []
    if op == "add":
        return [(args[0], adjoint), (args[1], adjoint)]
    if op == "sub":
        return [(args[0], adjoint), (args[1], LazyExpr("neg", (adjoint,)))]
    if op == "mul":
        return [
            (args[0], LazyExpr("mul", (adjoint, args[1]))),
            (args[1], LazyExpr("mul", (adjoint, args[0]))),
        ]
    if op == "div":
        num, den = args
        return [
            (num, LazyExpr("div", (adjoint, den))),
            (
                den,
                LazyExpr(
                    "neg",
                    (
                        LazyExpr(
                            "div",
                            (LazyExpr("mul", (adjoint, num)), LazyExpr("mul", (den, den))),
                        ),
                    ),
                ),
            ),
        ]
    if op == "neg":
        return [(args[0], LazyExpr("neg", (adjoint,)))]
    if op == "square":
        two_x = LazyExpr("mul", (LazyExpr("scalar", (2.0,)), args[0]))
        return [(args[0], LazyExpr("mul", (adjoint, two_x)))]
    if op == "sqrt":
        half_inv = LazyExpr(
            "div", (LazyExpr("scalar", (0.5,)), LazyExpr("sqrt", (args[0],)))
        )
        return [(args[0], LazyExpr("mul", (adjoint, half_inv)))]
    if op == "exp":
        return [(args[0], LazyExpr("mul", (adjoint, LazyExpr("exp", (args[0],)))))]
    if op == "log":
        return [(args[0], LazyExpr("div", (adjoint, args[0])))]
    if op == "pow":
        base, exponent = args
        if exponent.op != "scalar":
            raise DifferentiationError(
                "pow is differentiable only for constant exponents"
            )
        k = exponent.args[0]
        k_val = float(k.value if isinstance(k, Scalar) else k)
        term = LazyExpr(
            "mul",
            (
                LazyExpr("scalar", (k_val,)),
                LazyExpr("pow", (base, LazyExpr("scalar", (k_val - 1.0,)))),
            ),
        )
        return [(base, LazyExpr("mul", (adjoint, term)))]
    raise DifferentiationError(f"no derivative rule for op {op!r}")


def grad(
    expr: LazyExpr,
    wrt: Sequence[ndarray],
    return_loss: bool = True,
):
    """Differentiate ``loss = sum(expr)`` with respect to leaf arrays.

    Returns ``(loss, [gradients])`` (or just the gradient list when
    ``return_loss=False``).  Every gradient is a distributed array of
    the leaf's shape, produced by one fused evaluation.
    """
    if not isinstance(expr, LazyExpr):
        raise TypeError("grad expects a lazy expression")
    leaves = expr.leaves()
    targets = {id(arr) for arr in wrt}
    missing = [arr for arr in wrt if not any(id(l) == id(arr) for l in leaves)]
    if missing:
        raise DifferentiationError(
            "some wrt arrays do not appear in the expression"
        )

    # Reverse accumulation over the (tree-shaped) expression.  Adjoints
    # of repeated leaves sum across occurrences.
    accumulated: Dict[int, LazyExpr] = {}

    def backprop(node: LazyExpr, adjoint: LazyExpr) -> None:
        if node.op == "leaf":
            key = id(node.args[0])
            if key in accumulated:
                accumulated[key] = LazyExpr("add", (accumulated[key], adjoint))
            else:
                accumulated[key] = adjoint
            return
        for child, contribution in _vjp(node, adjoint):
            if isinstance(child, LazyExpr) and child.op != "scalar":
                backprop(child, contribution)

    backprop(expr, LazyExpr("scalar", (1.0,)))

    gradients: List[ndarray] = []
    for arr in wrt:
        adjoint = accumulated.get(id(arr))
        if adjoint is None:
            gradients.append(rnp.zeros(arr.shape, dtype=arr.dtype))
        else:
            gradients.append(evaluate(adjoint))
    if not return_loss:
        return gradients
    loss = rnp.sum(evaluate(expr))
    return loss, gradients
