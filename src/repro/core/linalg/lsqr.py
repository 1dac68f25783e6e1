"""LSQR: least-squares via Golub-Kahan bidiagonalization (Paige-Saunders).

A direct port of the classic algorithm onto distributed arrays: every
iteration is one ``A @ v`` and one ``A.T @ u`` (the transpose product
uses the scatter kernel — no transpose is materialized) plus a handful
of axpys and norms.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import repro.numeric as rnp
from repro.numeric.array import ndarray


def lsqr(
    A,
    b: ndarray,
    atol: float = 1e-8,
    btol: float = 1e-8,
    iter_lim: Optional[int] = None,
    x0: Optional[ndarray] = None,
) -> Tuple[ndarray, int, int, float]:
    """Solve ``min ||A x - b||_2`` (or the consistent system).

    Returns ``(x, istop, itn, residual_norm)`` with SciPy's ``istop``
    conventions: 1 = solution found within ``atol``/``btol``,
    2 = least-squares solution found, 7 = iteration limit.
    """
    m, n = A.shape
    if b.shape[0] != m:
        raise ValueError(f"b has length {b.shape[0]}, expected {m}")
    if iter_lim is None:
        iter_lim = 2 * n

    if x0 is not None:
        x = x0.copy()
        u = b - A @ x
    else:
        x = rnp.zeros(n, dtype=b.dtype)
        u = b.copy()

    beta = float(rnp.linalg.norm(u))
    if beta > 0:
        u = u / beta
    v = u @ A  # A.T @ u via the scatter kernel
    alpha = float(rnp.linalg.norm(v))
    if alpha > 0:
        v = v / alpha
    w = v.copy()

    phibar, rhobar = beta, alpha
    bnorm = beta
    anorm = 0.0
    rnorm = beta
    arnorm = alpha * beta
    if arnorm == 0:
        return x, 1, 0, rnorm

    istop, itn = 0, 0
    while itn < iter_lim:
        itn += 1
        # Bidiagonalization step.
        u = A @ v - u * alpha
        beta = float(rnp.linalg.norm(u))
        if beta > 0:
            u = u / beta
        anorm = math.hypot(anorm, math.hypot(alpha, beta))
        v = (u @ A) - v * beta
        alpha = float(rnp.linalg.norm(v))
        if alpha > 0:
            v = v / alpha

        # Givens rotation eliminating beta.
        rho = math.hypot(rhobar, beta)
        c = rhobar / rho
        s = beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar

        # Update the solution and the search direction.
        x += w * (phi / rho)
        w = v - w * (theta / rho)

        rnorm = phibar
        arnorm = phibar * alpha * abs(c)
        # Stopping tests (SciPy's 1/2 criteria).
        test1 = rnorm / max(bnorm, 1e-300)
        test2 = arnorm / max(anorm * rnorm, 1e-300)
        if test1 <= btol + atol * anorm * float(rnp.linalg.norm(x)) / max(bnorm, 1e-300):
            istop = 1
            break
        if test2 <= atol:
            istop = 2
            break
    else:
        istop = 7
    return x, istop, itn, rnorm
