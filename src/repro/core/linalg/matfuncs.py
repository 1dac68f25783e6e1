"""Matrix functions: the action of the matrix exponential.

``expm_multiply`` computes ``exp(t A) @ v`` with the scaling-and-Taylor
scheme (a simplified Al-Mohy-Higham): choose ``s`` so that
``||t A||_1 / s`` is modest, then apply ``s`` truncated Taylor sweeps.
Everything inside is SpMV + axpy, so the port is pure distributed
operations (§5.2) — the same way SciPy builds it from matvecs.
"""

from __future__ import annotations

import math

import repro.numeric as rnp
from repro.numeric.array import ndarray


def expm_multiply(
    A,
    v: ndarray,
    t: float = 1.0,
    max_terms: int = 30,
    tol: float = 1e-12,
) -> ndarray:
    """``exp(t A) @ v`` without forming the exponential."""
    from repro.core.linalg.norms import norm as sparse_norm

    if A.shape[0] != A.shape[1]:
        raise ValueError("expm_multiply requires a square matrix")
    if v.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch")
    one_norm = float(sparse_norm(A, ord=1)) * abs(t)
    s = max(1, int(math.ceil(one_norm / 2.0)))
    h = t / s
    y = v.copy()
    for _ in range(s):
        term = y.copy()
        acc = y.copy()
        base = float(rnp.linalg.norm(y))
        for k in range(1, max_terms + 1):
            term = (A @ term) * (h / k)
            acc = acc + term
            if float(rnp.linalg.norm(term)) <= tol * max(base, 1e-300):
                break
        y = acc
    return y
