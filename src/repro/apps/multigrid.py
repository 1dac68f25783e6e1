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
    """The V-cycle preconditioner M ≈ A^{-1}.

    ``restriction="injection"`` (the paper's, and the default) is not a
    multiple of ``P.T``, so the V-cycle is not a symmetric operator,
    which CG assumes: PCG stops converging past k ≈ 43 (45, 64 and 102
    iterations at k = 39, 41 and 43; none in 200 at k = 47).
    ``"fullweight"`` (``R = P.T / 4``) keeps it symmetric and converges
    in 7 iterations at each of those grids.
    """

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

        The coarse CG runs on the processors its grid earns under
        Legate's minimum chunk (:meth:`Runtime.colors_for`): a coarse
        grid too small to feed every processor is agglomerated onto
        fewer, so its reductions span fewer shards.  The restriction and
        the prolongation then gather ``rc`` and scatter ``ec``.  The
        fine level keeps the caller's width: ``A``, ``r`` and ``e`` are
        the caller's data.
        """
        e = self.smooth(r, None, self.pre_smooth)
        rc = self.R @ (r - self.A @ e)
        rt = self.Ac.runtime
        with rt.narrow(rt.colors_for(self.Ac.shape[0])):
            ec, _ = sp.linalg.cg(
                self.Ac, rc, rtol=self.coarse_rtol, maxiter=self.coarse_maxiter
            )
        e = e + self.P @ ec
        return self.smooth(r, e, self.post_smooth)

    def as_preconditioner(self) -> LinearOperator:
        """The V-cycle wrapped as a LinearOperator."""
        n = self.A.shape[0]
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

    Returns ``(x, info, iterations)``.  Under the default injection
    restriction, which is not a multiple of ``P.T``, the preconditioner
    is not symmetric and PCG stops converging past k ≈ 43; pass
    ``restriction="fullweight"`` for a symmetric V-cycle
    (:class:`TwoLevelGMG`).
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
