"""Iterative Krylov solvers: CG, CGS, BiCG, BiCGSTAB, GMRES.

Ported from the SciPy implementations (paper §5.2): the code below is
the textbook algorithm over distributed arrays.  Signatures follow
``scipy.sparse.linalg``: ``(x, info)`` where ``info == 0`` on
convergence, ``> 0`` is the iteration count at which the solver gave up,
``< 0`` signals a breakdown.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Callable, Optional, Tuple

import numpy as np

import repro.numeric as rnp
from repro.core.linalg.interface import LinearOperator, aslinearoperator
from repro.legion.future import Future
from repro.numeric.array import Scalar, ndarray


def _apply(op, x: ndarray) -> ndarray:
    if op is None:
        return x
    if isinstance(op, LinearOperator):
        return op.matvec(x)
    return op @ x


def _setup(A, b: ndarray, x0, maxiter):
    """``(x, r, maxiter, ‖b‖)``: the start, its residual, and ``‖b‖``
    still deferred.  Nothing here waits, so the solver's first launches
    join the norm's window.  A zero start (``x0 is None``) takes
    ``r = b``, SciPy's ``x.any()`` rule: no SpMV, no halo exchange, and
    the same bits as ``b - A @ 0`` except the sign of a zero where
    ``b`` holds ``-0.0``."""
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, b has length {n}")
    if maxiter is None:
        maxiter = 10 * n
    x = x0.copy() if x0 is not None else rnp.zeros(n, dtype=b.dtype)
    bnrm = rnp.linalg.norm(b)
    r = b - A @ x if x0 is not None else b.copy()
    return x, r, maxiter, bnrm


def _tol(bnrm: Scalar, rtol: float, atol: float) -> Callable[[], float]:
    """The stopping threshold on ``‖r‖`` as a call: the first call waits
    on ``‖b‖``, so a solver makes it at its first convergence check."""

    @functools.cache
    def tol() -> float:
        value = float(bnrm)
        if value == 0.0:
            return atol
        return max(rtol * value, atol)

    return tol


def _quotient(num: Scalar, den: Scalar) -> Scalar:
    """``num / den``, or NaN where ``den == 0``: a step of a body
    issued before the checks that may discard it (a ``p·q`` breakdown,
    an exactly zero residual).  Such a body computes with quiet NaNs,
    which propagate without a warning or an error; every other quotient
    is the same bits as ``num / den``."""
    return Scalar(
        Future.combine(_divide_or_nan, num.future, den.future), num.runtime
    )


def _divide_or_nan(a, b):
    return a / b if b != 0 else a * np.nan


# The most bodies a one-GPU CG issues ahead of its oldest host check.
_AHEAD = 8


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

    The runtime finds the iterations' repeated launches itself
    (:mod:`repro.legion.tracing`) and charges them as replays, so the
    per-launch overhead the paper blames for its small-task losses
    (§6.1) is paid in full by a launch's first occurrence only.

    Issue before check: a host-side check waits only after the work it
    does not guard is issued.  An iteration issues ``q = A p``, ``p·q``
    and the whole body (``x + p α``, ``r -= q α``, ``z``, ``r·z``,
    ``p = z + p β``, ``‖r‖``) before it runs the host checks of the
    body's start ``x_j``: "``p·q`` of the body before is 0" (return the
    ``x`` that body started from, ``-1``), then ``callback(x_j)``, then
    "``‖r_j‖`` is within tolerance" (return ``x_j``).  Those are the
    check-first loop's checks in its order (``‖r₀‖``, ``p₀·q₀``,
    ``‖r₁‖``, …), so ``x``, ``info`` and the callbacks are bitwise the
    same; each body writes its ``x`` out of place, so the one a check
    returns is still there.  ``‖b‖`` resolves at the first check.

    The checks wait in a FIFO of ``(x_j, guard_j, ‖r_j‖)``.  After a
    body is issued, the oldest check is read, and the next, until one
    would stall the host in a one-color fusing scope
    (:meth:`~repro.legion.runtime.Runtime.issues_ahead_of`) while fewer
    than ``_AHEAD`` bodies are outstanding; after the loop the FIFO
    drains in order.  On one GPU (a V-cycle's coarse solve) the host
    thus issues up to ``_AHEAD`` bodies ahead of a check whose values
    are still being computed, and consecutive bodies plan as one fused
    group whose reductions feed their consumers inside the shard
    (:mod:`repro.legion.fusion`, rule 5).  Everywhere else no check
    defers: an iteration reads its own checks, which read values
    computed one flush earlier, so the host never blocks on an
    allreduce it has just issued.

    A body that a check discards steps by ``α`` and ``β`` through
    :func:`_quotient`, so a zero ``p·q`` or an exactly zero residual
    yields quiet NaNs, never a warning or an error.  The price: a solve
    that converges or breaks down issues bodies (each with its SpMV, its
    ``p·q`` and, under a preconditioner, one ``M r``) that its last
    check discards -- one, or up to ``_AHEAD`` on one GPU.  A zero start
    computes no residual (:func:`_setup`), so ``‖r₀‖`` is ``‖b‖``'s
    fold.
    """
    x, r, maxiter, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    z = _apply(M, r)
    p = z.copy()
    rz = rnp.vdot(r, z)
    rnorm = bnrm if x0 is None else rnp.linalg.norm(r)
    runtime = bnrm.runtime
    guard = None
    checks: deque = deque()

    def check(x_j, guard_j, rnorm_j):
        """The host checks of the check-first loop, in its order."""
        if guard_j is not None:
            x_before, pq_before = guard_j
            if complex(pq_before) == 0:
                return x_before, -1
            if callback is not None:
                callback(x_j)
        if float(rnorm_j) <= tol():
            return x_j, 0
        return None

    def defers() -> bool:
        """Whether the oldest check waits for another body."""
        if len(checks) >= _AHEAD:
            return False
        _x_j, guard_j, rnorm_j = checks[0]
        futures = (rnorm_j.future, bnrm.future)
        if guard_j is not None:
            futures += (guard_j[1].future,)
        return runtime.issues_ahead_of(*futures)

    for _it in range(maxiter):
        q = A @ p
        pq = rnp.vdot(p, q)
        alpha = _quotient(rz, pq)
        x_next = x + p * alpha
        r -= q * alpha
        z = _apply(M, r)
        rz_next = rnp.vdot(r, z)
        p = z + p * _quotient(rz_next, rz)
        rnorm_next = rnp.linalg.norm(r)
        checks.append((x, guard, rnorm))
        while checks and not defers():
            done = check(*checks.popleft())
            if done is not None:
                return done
        guard = (x, pq)
        x, rz, rnorm = x_next, rz_next, rnorm_next
    checks.append((x, guard, rnorm))
    while checks:
        done = check(*checks.popleft())
        if done is not None:
            return done
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
    x, r, maxiter, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    rtilde = r.copy()
    rho_prev = None
    u = q = p = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol():
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
    if float(rnp.linalg.norm(r)) <= tol():
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
    x, r, maxiter, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    rtilde = r.copy()
    p = ptilde = None
    rho_prev = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol():
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
    if float(rnp.linalg.norm(r)) <= tol():
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
    x, r, maxiter, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    rtilde = r.copy()
    rho_prev = alpha = omega = None
    v = p = None
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol():
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
        if float(rnp.linalg.norm(s)) <= tol():
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
    if float(rnp.linalg.norm(r)) <= tol():
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
    SciPy's structure.  A restart starts from the residual the last one
    checked, so each restart issues one residual SpMV, and a zero start
    none.
    """
    x, r, _, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    n = b.shape[0]
    if maxiter is None:
        maxiter = min(10 * n, 1000)
    restart = min(restart, n)
    hdtype = complex if b.dtype.kind == "c" else float
    outer_done = 0
    while outer_done < maxiter:
        z = _apply(M, r)
        beta = float(rnp.linalg.norm(z))
        if beta <= tol():
            return x, 0
        V = [z / beta]
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
            if hkk <= 1e-14 or resid <= tol():
                break
            V.append(w / hkk)
        if k_used > 0 and y is not None:
            for i in range(k_used):
                coeff = complex(y[i]) if hdtype is complex else float(np.real(y[i]))
                x += V[i] * coeff
        outer_done += max(k_used, 1)
        if callback is not None:
            callback(x)
        r = b - A @ x
        resid = float(rnp.linalg.norm(r))
        if resid <= tol():
            return x, 0
    return x, maxiter
