"""Comparator systems from the paper's evaluation.

* :mod:`repro.baselines.petsc` — a PETSc-like, explicitly-partitioned
  message-passing sparse library (MPIAIJ matrices with diagonal/
  off-diagonal blocks and VecScatter-style ghost exchange) with a
  hand-written CG.  A genuinely different code path from the Legate
  stack, the way PETSc is in the paper.

The single-device systems need no code of their own: SciPy and CuPy
are the *same* Legate stack on one processor with a
:class:`~repro.legion.runtime.RuntimeConfig` preset,
``Runtime(machine.scope(ProcessorKind.CPU_CORE, 1), RuntimeConfig.scipy())``
and ``Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.cupy())``.
"""

from repro.baselines.petsc import KSP, MatMPIAIJ, MPISim, PetscVec

__all__ = [
    "KSP",
    "MPISim",
    "MatMPIAIJ",
    "PetscVec",
]
