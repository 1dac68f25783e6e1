"""Iterative Krylov solvers: CG, CGS, BiCG, BiCGSTAB, GMRES.

Ported from the SciPy implementations (paper §5.2): the code below is
the textbook algorithm over distributed arrays.  Signatures follow
``scipy.sparse.linalg``: ``(x, info)`` where ``info == 0`` on
convergence, ``> 0`` is the iteration count at which the solver gave up,
``< 0`` signals a breakdown.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.core.linalg.interface import LinearOperator, aslinearoperator
from repro.numeric.array import ndarray


def _apply(op, x: ndarray) -> ndarray:
    if op is None:
        return x
    if isinstance(op, LinearOperator):
        return op.matvec(x)
    return op @ x


def _setup(A, b: ndarray, x0, rtol: float, atol: float, maxiter):
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, b has length {n}")
    x = x0.copy() if x0 is not None else rnp.zeros(n, dtype=b.dtype)
    if maxiter is None:
        maxiter = 10 * n
    bnrm = float(rnp.linalg.norm(b))
    tol = max(rtol * bnrm, atol)
    if bnrm == 0.0:
        tol = atol
    return x, maxiter, tol


def cg(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """Conjugate Gradient for SPD (or HPD) systems.

    Each iteration is one trace body (:mod:`repro.legion.tracing`): the
    runtime captures its launches once per system and replays them --
    across calls too -- so the per-launch overhead the paper blames for
    its small-task losses (§6.1) is paid by the first iteration only.
    The convergence check sits inside the scope, so the scope adds no
    synchronization of its own.
    """
    x, maxiter, tol = _setup(A, b, x0, rtol, atol, maxiter)
    r = b - A @ x
    z = _apply(M, r)
    p = z.copy()
    rz = rnp.vdot(r, z)
    # Keyed by system, so a fine solve whose preconditioner runs a
    # coarse solve (GMG) keeps one trace for each.
    trace = x.runtime.trace("cg", key=(A.shape, x.dtype.str, M is None))
    for _it in range(maxiter):
        with trace:
            if float(rnp.linalg.norm(r)) <= tol:
                return x, 0
            q = A @ p
            pq = rnp.vdot(p, q)
            if complex(pq) == 0:
                return x, -1
            alpha = rz / pq
            x += p * alpha
            r -= q * alpha
            z = _apply(M, r)
            rz_next = rnp.vdot(r, z)
            beta = rz_next / rz
            p = z + p * beta
            rz = rz_next
            if callback is not None:
                callback(x)
    if float(rnp.linalg.norm(r)) <= tol:
        return x, 0
    return x, maxiter


def cgs(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """Conjugate Gradient Squared (non-symmetric systems)."""
    x, maxiter, tol = _setup(A, b, x0, rtol, atol, maxiter)
    r = b - A @ x
    rtilde = r.copy()
    rho_prev = None
    u = q = p = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol:
            return x, 0
        rho = rnp.vdot(rtilde, r)
        if complex(rho) == 0:
            return x, -1
        if rho_prev is None:
            u = r.copy()
            p = r.copy()
        else:
            beta = rho / rho_prev
            u = r + q * beta
            p = u + (q + p * beta) * beta
        phat = _apply(M, p)
        vhat = A @ phat
        sigma = rnp.vdot(rtilde, vhat)
        if complex(sigma) == 0:
            return x, -1
        alpha = rho / sigma
        q = u - vhat * alpha
        uhat = _apply(M, u + q)
        x += uhat * alpha
        r -= (A @ uhat) * alpha
        rho_prev = rho
        if callback is not None:
            callback(x)
    if float(rnp.linalg.norm(r)) <= tol:
        return x, 0
    return x, maxiter


def bicg(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """Biconjugate Gradient (uses A and A^T products)."""
    AT = aslinearoperator(A).T if not hasattr(A, "_rmatvec") else None
    x, maxiter, tol = _setup(A, b, x0, rtol, atol, maxiter)
    r = b - A @ x
    rtilde = r.copy()
    p = ptilde = None
    rho_prev = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol:
            return x, 0
        z = _apply(M, r)
        ztilde = _apply(M, rtilde)
        rho = rnp.vdot(rtilde, z)
        if complex(rho) == 0:
            return x, -1
        if rho_prev is None:
            p = z.copy()
            ptilde = ztilde.copy()
        else:
            beta = rho / rho_prev
            p = z + p * beta
            ptilde = ztilde + ptilde * beta
        q = A @ p
        if AT is not None:
            qtilde = AT.matvec(ptilde)
        else:
            qtilde = A._rmatvec(ptilde)
        denom = rnp.vdot(ptilde, q)
        if complex(denom) == 0:
            return x, -1
        alpha = rho / denom
        x += p * alpha
        r -= q * alpha
        rtilde -= qtilde * alpha.conjugate() if hasattr(alpha, "conjugate") else qtilde * alpha
        rho_prev = rho
        if callback is not None:
            callback(x)
    if float(rnp.linalg.norm(r)) <= tol:
        return x, 0
    return x, maxiter


def bicgstab(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """BiCGSTAB (stabilized BiCG; no transpose products)."""
    x, maxiter, tol = _setup(A, b, x0, rtol, atol, maxiter)
    r = b - A @ x
    rtilde = r.copy()
    rho_prev = alpha = omega = None
    v = p = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol:
            return x, 0
        rho = rnp.vdot(rtilde, r)
        if complex(rho) == 0:
            return x, -1
        if rho_prev is None:
            p = r.copy()
        else:
            beta = (rho / rho_prev) * (alpha / omega)
            p = r + (p - v * omega) * beta
        phat = _apply(M, p)
        v = A @ phat
        denom = rnp.vdot(rtilde, v)
        if complex(denom) == 0:
            return x, -1
        alpha = rho / denom
        s = r - v * alpha
        if float(rnp.linalg.norm(s)) <= tol:
            x += phat * alpha
            return x, 0
        shat = _apply(M, s)
        t = A @ shat
        tt = rnp.vdot(t, t)
        if complex(tt) == 0:
            return x, -1
        omega = rnp.vdot(t, s) / tt
        x += phat * alpha + shat * omega
        r = s - t * omega
        rho_prev = rho
        if callback is not None:
            callback(x)
    if float(rnp.linalg.norm(r)) <= tol:
        return x, 0
    return x, maxiter


def gmres(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """Restarted GMRES.

    The Krylov basis is a list of distributed vectors; the small
    Hessenberg system and Givens rotations live on the host, matching
    SciPy's structure.
    """
    x, _, tol = _setup(A, b, x0, rtol, atol, maxiter)
    n = b.shape[0]
    if maxiter is None:
        maxiter = min(10 * n, 1000)
    restart = min(restart, n)
    hdtype = complex if b.dtype.kind == "c" else float
    outer_done = 0
    while outer_done < maxiter:
        r = _apply(M, b - A @ x)
        beta = float(rnp.linalg.norm(r))
        if beta <= tol:
            return x, 0
        V = [r / beta]
        H = np.zeros((restart + 1, restart), dtype=hdtype)
        e1 = np.zeros(restart + 1, dtype=hdtype)
        e1[0] = beta
        k_used = 0
        y = None
        for k in range(restart):
            if outer_done + k >= maxiter:
                break
            w = _apply(M, A @ V[k])
            # Modified Gram-Schmidt orthogonalization.
            for i in range(k + 1):
                hik = complex(rnp.vdot(V[i], w))
                H[i, k] = hik if hdtype is complex else hik.real
                w -= V[i] * H[i, k]
            hkk = float(rnp.linalg.norm(w))
            H[k + 1, k] = hkk
            k_used = k + 1
            # Small host-side least-squares solve (SciPy keeps this on
            # the host too: it is O(restart^2) data).
            Hk = H[: k + 2, : k + 1]
            y, _, _, _ = np.linalg.lstsq(Hk, e1[: k + 2], rcond=None)
            resid = float(np.linalg.norm(Hk @ y - e1[: k + 2]))
            if hkk <= 1e-14 or resid <= tol:
                break
            V.append(w / hkk)
        if k_used > 0 and y is not None:
            for i in range(k_used):
                coeff = complex(y[i]) if hdtype is complex else float(np.real(y[i]))
                x += V[i] * coeff
        outer_done += max(k_used, 1)
        if callback is not None:
            callback(x)
        resid = float(rnp.linalg.norm(b - A @ x))
        if resid <= tol:
            return x, 0
    return x, maxiter
