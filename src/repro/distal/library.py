"""The statements Legate Sparse generates with DISTAL (paper §5.1).

Each entry pairs a tensor-algebra statement with the schedule used to
distribute it — the row-distributed schedule of the paper's Fig. 6 —
so the registry can generate kernels for any supported format and
processor kind on demand.
"""

from __future__ import annotations

from typing import Dict

from repro.distal.ir import Assignment, IndexVar, Tensor
from repro.distal.schedule import Schedule
from repro.machine import ProcessorKind

i, j, k = IndexVar("i"), IndexVar("j"), IndexVar("k")
io, ii = IndexVar("io"), IndexVar("ii")

y = Tensor("y", 1)
x = Tensor("x", 1)
A = Tensor("A", 2)
B = Tensor("B", 2)
C = Tensor("C", 2)
D = Tensor("D", 2)
X = Tensor("X", 2)
Y = Tensor("Y", 2)
R = Tensor("R", 2)


STATEMENTS: Dict[str, Assignment] = {
    stmt.key(): stmt
    for stmt in [
        y[i] << A[i, j] * x[j],  # SpMV
        y[j] << A[i, j] * x[i],  # SpMV transpose / CSC SpMV
        Y[i, k] << A[i, j] * X[j, k],  # SpMM
        Y[j, k] << A[i, j] * X[i, k],  # SpMM transpose
        R[i, j] << B[i, j] * C[i, k] * D[j, k],  # SDDMM
        R[i, j] << C[i, k] * D[j, k],  # C Dᵀ sampled on R's pattern
        y[i] << A[i, j],  # row sums
        y[j] << A[i, j],  # column sums
        y[i] << A[i, i],  # diagonal
    ]
}


def row_distributed_schedule(
    kind: ProcessorKind, statement: Assignment | None = None
) -> Schedule:
    """The paper's Fig. 6 schedule: divide rows, distribute, parallelize.

    When a statement is given, the communicated operands are its actual
    tensors (so the schedule passes the legality lint for statements
    whose operands are not literally ``y``/``A``/``x``, e.g. SpMM).
    """
    tensors = statement.tensors if statement is not None else [y, A, x]
    return (
        Schedule()
        .divide(i, io, ii)
        .distribute(io)
        .communicate(io, list(tensors))
        .parallelize(ii, kind)
    )
