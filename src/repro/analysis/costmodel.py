"""Per-kernel cost and output-nnz models for the static advisor.

Every DISTAL-generated kernel (:data:`repro.core.coverage.GENERATED`)
registers a :class:`KernelModel` here: closed-form flop/byte estimates
and an *nnz bound* for the kernel's output as functions of the symbolic
problem parameters (rows, cols, nnz, dense width k).  The advisor uses
these when a traced plan carries only symbolic shapes; the coverage
inventory (:func:`repro.core.coverage.inventory`) reports the registry
as its "advisor-analyzable" column; and ``test_api_coverage`` asserts
the registry stays total over GENERATED.

Models are deliberately simple roofline inputs — counts of touched
values and index entries — not microarchitectural. ``for_task_name``
maps a runtime task name (``"csr:y(i)=A(i,j)*x(j):gpu"``, the DISTAL
spec naming convention) back to its model.

Like the rest of :mod:`repro.analysis`, this module imports nothing
from :mod:`repro.legion` or :mod:`repro.distal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: Parameters every model receives: matrix rows/cols, stored nonzeros,
#: dense operand width (1 for vectors) and value itemsize in bytes.
Params = Tuple[int, int, int, int, int]


@dataclass(frozen=True)
class KernelModel:
    """Closed-form cost/nnz model of one generated kernel."""

    name: str         # coverage name, e.g. "csr_matvec"
    statement: str    # DISTAL statement key, e.g. "y(i)=A(i,j)*x(j)"
    fmt: str          # format name, e.g. "csr"
    flops: Callable[[int, int, int, int], float]
    bytes: Callable[[int, int, int, int, int], float]
    out_nnz: Callable[[int, int, int, int], int]

    def evaluate(
        self, rows: int, cols: int, nnz: int, k: int = 1, itemsize: int = 8
    ) -> Dict[str, float]:
        """flops / bytes / output-nnz for a concrete problem size."""
        return {
            "flops": float(self.flops(rows, cols, nnz, k)),
            "bytes": float(self.bytes(rows, cols, nnz, k, itemsize)),
            "out_nnz": int(self.out_nnz(rows, cols, nnz, k)),
        }


def _spmv_bytes(rows, cols, nnz, k, isz):
    # vals + crd per nonzero, pos per row, x gather bound, y write.
    return nnz * (isz + 8) + rows * (16 + isz) + cols * isz


def _spmm_bytes(rows, cols, nnz, k, isz):
    return nnz * (isz + 8) + rows * 16 + (rows + cols) * k * isz


_MODELS = [
    KernelModel(
        "csr_matvec", "y(i)=A(i,j)*x(j)", "csr",
        flops=lambda r, c, n, k: 2.0 * n,
        bytes=_spmv_bytes,
        out_nnz=lambda r, c, n, k: r,
    ),
    KernelModel(
        "csr_rmatvec", "y(j)=A(i,j)*x(i)", "csr",
        flops=lambda r, c, n, k: 2.0 * n,
        bytes=lambda r, c, n, k, isz: _spmv_bytes(c, r, n, k, isz),
        out_nnz=lambda r, c, n, k: c,
    ),
    KernelModel(
        "csr_matmat", "Y(i,k)=A(i,j)*X(j,k)", "csr",
        flops=lambda r, c, n, k: 2.0 * n * k,
        bytes=_spmm_bytes,
        out_nnz=lambda r, c, n, k: r * k,
    ),
    KernelModel(
        "csr_matmat_transpose", "Y(j,k)=A(i,j)*X(i,k)", "csr",
        flops=lambda r, c, n, k: 2.0 * n * k,
        bytes=lambda r, c, n, k, isz: _spmm_bytes(c, r, n, k, isz),
        out_nnz=lambda r, c, n, k: c * k,
    ),
    KernelModel(
        "csr_sddmm", "R(i,j)=B(i,j)*C(i,k)*D(j,k)", "csr",
        # Per stored nonzero: a k-length dot plus the Hadamard scale.
        flops=lambda r, c, n, k: n * (2.0 * k + 1.0),
        bytes=lambda r, c, n, k, isz: (
            2 * n * (isz + 8) + r * 16 + (r + c) * k * isz
        ),
        out_nnz=lambda r, c, n, k: n,
    ),
    KernelModel(
        "csr_row_sums", "y(i)=A(i,j)", "csr",
        flops=lambda r, c, n, k: float(n),
        bytes=lambda r, c, n, k, isz: n * isz + r * (16 + isz),
        out_nnz=lambda r, c, n, k: r,
    ),
    KernelModel(
        "csr_col_sums", "y(j)=A(i,j)", "csr",
        flops=lambda r, c, n, k: float(n),
        bytes=lambda r, c, n, k, isz: n * (isz + 8) + c * isz,
        out_nnz=lambda r, c, n, k: c,
    ),
    KernelModel(
        "csr_diagonal", "y(i)=A(i,i)", "csr",
        # Binary search of each diagonal row segment: ~log cost folded
        # into a per-row constant.
        flops=lambda r, c, n, k: 2.0 * min(r, c),
        bytes=lambda r, c, n, k, isz: (
            min(r, c) * (16 + 8 + 2 * isz)
        ),
        out_nnz=lambda r, c, n, k: min(r, c),
    ),
    KernelModel(
        "dia_matvec", "y(i)=A(i,j)*x(j)", "dia",
        # nnz here = stored band entries (rows x ndiags).
        flops=lambda r, c, n, k: 2.0 * n,
        bytes=lambda r, c, n, k, isz: n * isz + (r + c) * isz,
        out_nnz=lambda r, c, n, k: r,
    ),
    KernelModel(
        "coo_matvec", "y(i)=A(i,j)*x(j)", "coo",
        flops=lambda r, c, n, k: 2.0 * n,
        # Two coordinate reads per nonzero (row and col).
        bytes=lambda r, c, n, k, isz: n * (isz + 16) + (r + c) * isz,
        out_nnz=lambda r, c, n, k: r,
    ),
    KernelModel(
        "bsr_matvec", "y(i)=A(i,j)*x(j)", "bsr",
        # nnz = scalar entries inside stored blocks.
        flops=lambda r, c, n, k: 2.0 * n,
        # Block indices amortize over R*C entries; bound with the
        # scalar-entry count.
        bytes=lambda r, c, n, k, isz: n * isz + n + (r + c) * isz,
        out_nnz=lambda r, c, n, k: r,
    ),
]

#: coverage name -> model
REGISTRY: Dict[str, KernelModel] = {m.name: m for m in _MODELS}

#: (statement key, format name) -> model
BY_STATEMENT: Dict[Tuple[str, str], KernelModel] = {
    (m.statement, m.fmt): m for m in _MODELS
}


def get_model(name: str) -> Optional[KernelModel]:
    """The model registered under a coverage name, or None."""
    return REGISTRY.get(name)


def for_statement(statement: str, fmt: str) -> Optional[KernelModel]:
    """The model for a (statement key, format name) pair, or None."""
    return BY_STATEMENT.get((statement, fmt))


def for_task_name(task_name: str) -> Optional[KernelModel]:
    """Resolve a runtime task name to its kernel model.

    DISTAL kernel specs are named ``"<fmt>:<statement>:<proc-kind>"``
    (e.g. ``"csr:y(i)=A(i,j)*x(j):gpu"``).  Non-DISTAL task names
    (``"fill"``, ``"axpy"``, ...) resolve to None.
    """
    if task_name.startswith("fused{"):
        # Automatically fused groups (repro.legion.fusion) cost the sum
        # of their sub-launches; there is no single kernel model.
        return None
    parts = task_name.split(":")
    if len(parts) < 3:
        return None
    fmt = parts[0]
    statement = ":".join(parts[1:-1])
    return BY_STATEMENT.get((statement, fmt))


def analyzable(name: str) -> bool:
    """Whether a GENERATED kernel has a registered advisor model."""
    return name in REGISTRY
