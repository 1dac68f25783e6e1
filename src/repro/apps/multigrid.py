"""Two-level geometric multigrid (paper §6.1, Fig. 10).

A ~300-line-of-Python workload in the paper: a conjugate gradient solver
preconditioned by a two-level V-cycle with an injection restriction
operator and a weighted-Jacobi smoother, on the 2-D Poisson problem.
The coarse operator is formed with the Galerkin triple product — three
distributed SpGEMMs — and the coarse solve is itself a distributed CG.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.core.linalg import LinearOperator
from repro.numeric.array import ndarray


def _grid_sizes(k: int) -> int:
    if k % 2 == 0:
        raise ValueError("grid size k must be odd (coarse points at 2i+1)")
    return (k - 1) // 2


def injection_restriction(k: int) -> "sp.csr_matrix":
    """R: picks the fine values at coarse points (2i+1, 2j+1)."""
    kc = _grid_sizes(k)
    rows = np.arange(kc * kc, dtype=np.int64)
    ci, cj = np.divmod(rows, kc)
    cols = (2 * ci + 1) * k + (2 * cj + 1)
    vals = np.ones(kc * kc)
    return sp.csr_matrix((vals, (rows, cols)), shape=(kc * kc, k * k))


def bilinear_prolongation(k: int) -> "sp.csr_matrix":
    """P: bilinear interpolation from the coarse grid to the fine grid."""
    kc = _grid_sizes(k)
    rows, cols, vals = [], [], []
    coarse_index = lambda ci, cj: ci * kc + cj  # noqa: E731
    for ci in range(kc):
        fi = 2 * ci + 1
        for cj in range(kc):
            fj = 2 * cj + 1
            c = coarse_index(ci, cj)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    i, j = fi + di, fj + dj
                    if not (0 <= i < k and 0 <= j < k):
                        continue
                    w = (1.0 if di == 0 else 0.5) * (1.0 if dj == 0 else 0.5)
                    rows.append(i * k + j)
                    cols.append(c)
                    vals.append(w)
    return sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(k * k, kc * kc),
    )


class TwoLevelGMG:
    """The V-cycle preconditioner M ≈ A^{-1}."""

    def __init__(
        self,
        A: "sp.csr_matrix",
        k: int,
        omega: float = 2.0 / 3.0,
        pre_smooth: int = 2,
        post_smooth: int = 2,
        coarse_rtol: float = 1e-2,
        coarse_maxiter: int = 50,
        restriction: str = "injection",
    ):
        self.A = A
        self.k = k
        self.omega = omega
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.coarse_rtol = coarse_rtol
        self.coarse_maxiter = coarse_maxiter
        self.P = bilinear_prolongation(k)
        if restriction == "injection":
            self.R = injection_restriction(k)
        elif restriction == "fullweight":
            self.R = 0.25 * self.P.T.tocsr()
        else:
            raise ValueError(f"unknown restriction {restriction!r}")
        # Galerkin coarse operator: three distributed SpGEMMs.
        self.Ac = (self.R @ A @ self.P).tocsr()
        self.dinv = 1.0 / A.diagonal()

    def smooth(self, r: ndarray, e: Optional[ndarray], steps: int) -> ndarray:
        """Weighted-Jacobi: e <- e + omega * D^{-1} (r - A e)."""
        for _ in range(steps):
            if e is None:
                e = (r * self.dinv) * self.omega
            else:
                resid = r - self.A @ e
                e = e + (resid * self.dinv) * self.omega
        return e

    def vcycle(self, r: ndarray) -> ndarray:
        """One V-cycle: returns e with A e ≈ r.

        A trace body of its own (:mod:`repro.legion.tracing`) when
        applied stand-alone; as a CG preconditioner its scope -- and
        the coarse CG's inside it -- joins the outer iteration's.
        """
        with r.runtime.trace("gmg-vcycle", key=(self.A.shape, self.Ac.shape)):
            e = self.smooth(r, None, self.pre_smooth)
            rc = self.R @ (r - self.A @ e)
            ec, _ = sp.linalg.cg(
                self.Ac, rc, rtol=self.coarse_rtol, maxiter=self.coarse_maxiter
            )
            e = e + self.P @ ec
            e = self.smooth(r, e, self.post_smooth)
            return e

    def as_preconditioner(self) -> LinearOperator:
        """The V-cycle wrapped as a LinearOperator."""
        n = self.A.shape[0]
        return LinearOperator((n, n), matvec=self.vcycle)


class MultiLevelGMG:
    """A full V-cycle hierarchy (generalizes the paper's two levels).

    Levels are built by Galerkin triple products until the grid drops
    below ``coarsest``; the bottom solve is a short CG.
    """

    def __init__(
        self,
        A: "sp.csr_matrix",
        k: int,
        omega: float = 2.0 / 3.0,
        pre_smooth: int = 2,
        post_smooth: int = 2,
        coarsest: int = 7,
        coarse_rtol: float = 1e-2,
        coarse_maxiter: int = 50,
        restriction: str = "injection",
    ):
        self.omega = omega
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.coarse_rtol = coarse_rtol
        self.coarse_maxiter = coarse_maxiter
        self.levels = []  # (A, dinv, R, P); the last level has R = P = None
        while True:
            dinv = 1.0 / A.diagonal()
            kc = (k - 1) // 2 if k % 2 == 1 else 0
            if kc < coarsest or k % 2 == 0:
                self.levels.append((A, dinv, None, None))
                break
            P = bilinear_prolongation(k)
            if restriction == "injection":
                R = injection_restriction(k)
            elif restriction == "fullweight":
                R = 0.25 * P.T.tocsr()
            else:
                raise ValueError(f"unknown restriction {restriction!r}")
            self.levels.append((A, dinv, R, P))
            A = (R @ A @ P).tocsr()
            k = kc

    @property
    def depth(self) -> int:
        """Number of levels in the hierarchy."""
        return len(self.levels)

    def _smooth(self, A, dinv, r, e, steps):
        for _ in range(steps):
            if e is None:
                e = (r * dinv) * self.omega
            else:
                e = e + ((r - A @ e) * dinv) * self.omega
        return e

    def _vcycle(self, level: int, r: ndarray) -> ndarray:
        A, dinv, R, P = self.levels[level]
        if R is None:
            e, _ = sp.linalg.cg(
                A, r, rtol=self.coarse_rtol, maxiter=self.coarse_maxiter
            )
            return e
        e = self._smooth(A, dinv, r, None, self.pre_smooth)
        rc = R @ (r - A @ e)
        e = e + P @ self._vcycle(level + 1, rc)
        return self._smooth(A, dinv, r, e, self.post_smooth)

    def vcycle(self, r: ndarray) -> ndarray:
        """One full V-cycle from the finest level (one trace body; see
        :meth:`TwoLevelGMG.vcycle`)."""
        shapes = tuple(level[0].shape for level in self.levels)
        with r.runtime.trace("gmg-vcycle", key=shapes):
            return self._vcycle(0, r)

    def as_preconditioner(self) -> LinearOperator:
        """The V-cycle wrapped as a LinearOperator."""
        n = self.levels[0][0].shape[0]
        return LinearOperator((n, n), matvec=self.vcycle)


def gmg_preconditioned_cg(
    A: "sp.csr_matrix",
    b: ndarray,
    k: int,
    rtol: float = 1e-8,
    maxiter: int = 200,
    callback=None,
    **gmg_kwargs,
) -> Tuple[ndarray, int, int]:
    """CG preconditioned by the two-level V-cycle.

    Returns ``(x, info, iterations)``.
    """
    gmg = TwoLevelGMG(A, k, **gmg_kwargs)
    iters = [0]

    def count(xk):
        iters[0] += 1
        if callback is not None:
            callback(xk)

    x, info = sp.linalg.cg(
        A, b, rtol=rtol, maxiter=maxiter, M=gmg.as_preconditioner(), callback=count
    )
    return x, info, iters[0]
