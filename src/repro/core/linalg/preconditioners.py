"""Preconditioners for the iterative solvers.

``jacobi`` is fully distributed (a reciprocal-diagonal scaling, the same
smoothing building block the multigrid workload uses).  ``ssor`` applies
the symmetric SOR sweep with the gathered triangular solves — usable,
but its substitution is sequential (see ``linalg/triangular.py``).
"""

from __future__ import annotations

from repro.core.linalg.interface import LinearOperator
from repro.numeric.array import ndarray


def jacobi(A) -> LinearOperator:
    """M ≈ A^{-1} as 1/diag(A)."""
    csr = A.tocsr()
    if csr.shape[0] != csr.shape[1]:
        raise ValueError("jacobi preconditioner requires a square matrix")
    dinv = 1.0 / csr.diagonal()
    n = csr.shape[0]
    return LinearOperator((n, n), matvec=lambda r: r * dinv, dtype=csr.dtype)


def ssor(A, omega: float = 1.0) -> LinearOperator:
    """Symmetric SOR: M^{-1} r via forward + backward triangular sweeps.

    M = (D/ω + L) (D/ω)^{-1} (D/ω + U) / (ω (2 - ω)) for A = L + D + U.
    """
    from repro.core.extra import tril, triu
    from repro.core.linalg.triangular import spsolve_triangular

    if not 0 < omega < 2:
        raise ValueError("SSOR requires 0 < omega < 2")
    csr = A.tocsr()
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1]:
        raise ValueError("ssor preconditioner requires a square matrix")
    diag = csr.diagonal()
    from repro.core.construct import diags as make_diags

    d_over_omega = make_diags([diag.to_numpy() / omega], [0], shape=csr.shape).tocsr()
    lower = tril(csr, k=-1) + d_over_omega
    upper = triu(csr, k=1) + d_over_omega
    scale = omega * (2.0 - omega)
    dinv_omega = (diag / omega) * scale  # fold the scalar into the middle

    def apply(r: ndarray) -> ndarray:
        y = spsolve_triangular(lower, r, lower=True)
        y = y * dinv_omega
        return spsolve_triangular(upper, y, lower=False)

    return LinearOperator((n, n), matvec=apply, dtype=csr.dtype)
