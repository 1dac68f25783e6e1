"""Figure 9: weak scaling of a Conjugate Gradient solver (2-D Poisson).

The paper's outcomes:

* CPU: Legate ≫ SciPy (multithreaded sockets), PETSc slightly ahead of
  Legate (Legion reserves cores for runtime work);
* GPU: Legate ≈ 85 % of PETSc at one GPU, weak-scales well but falls
  off from ~32 nodes as fast kernels expose Legion's allreduce
  overheads, ending at ≈ 65 % of PETSc at 192 GPUs;
* CuPy matches the single-GPU systems but cannot scale.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.baselines.petsc import KSP, MatMPIAIJ, MPISim, PetscVec
from repro.harness.config import (
    WEAK_SCALING_COLUMNS,
    column_label,
    nodes_needed,
    paper_legate,
)
from repro.harness.figures import FigureResult
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

# Full-scale: a 5100^2 grid per GPU (~26M rows), 3x that per socket.
PER_GPU_N = 26_000_000
PER_SOCKET_N = 3 * PER_GPU_N
ITERS = 6
BUILD_CAP = 250_000


def _build_grid(n_full: int, procs: int) -> int:
    """Grid side k for the reduced build (k^2 rows, >= 512 rows/proc)."""
    target = min(n_full, max(procs * 512, BUILD_CAP))
    return max(8, int(math.sqrt(target)))


def iteration_rate(solve, barrier, iters: int) -> float:
    """Iterations per second of a warm solve, ``solve(maxiter)``: a
    ``maxiter=iters`` solve less a ``maxiter=0`` one of the same kind,
    so that its set-up (fills, copies, ``‖b‖``, a preconditioner's
    first application) is not counted as iterations."""
    t0 = barrier()
    solve(0)
    t1 = barrier()
    solve(iters)
    t2 = barrier()
    return iters / ((t2 - t1) - (t1 - t0))


def _legate_cg(
    machine: Machine,
    kind: ProcessorKind,
    procs: int,
    n_full: int,
    config_factory,
    iters: int = ITERS,
) -> float:
    k = _build_grid(n_full, procs)
    n_build = k * k
    k_full = math.sqrt(n_full)
    rt = Runtime(
        machine.scope(kind, procs),
        config_factory(data_scale=n_full / n_build, comm_scale=k_full / k),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(n_build)
        # Warm-up solve: staging + instance steady state.
        sp.linalg.cg(A, b, rtol=0.0, maxiter=2)
        return iteration_rate(
            lambda maxiter: sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter),
            rt.barrier, iters,
        )


def _petsc_cg(
    machine: Machine, kind: ProcessorKind, procs: int, n_full: int, iters: int = ITERS
) -> float:
    k = _build_grid(n_full, procs)
    n_build = k * k
    sim = MPISim(
        machine.scope(kind, procs),
        data_scale=n_full / n_build,
        comm_scale=math.sqrt(n_full) / k,
    )
    A = MatMPIAIJ(sim, poisson2d_scipy(k))
    b = PetscVec(sim, np.ones(n_build))
    ksp = KSP(sim, A)
    ksp.solve_cg(b, rtol=0.0, maxiter=2)
    return iteration_rate(
        lambda maxiter: ksp.solve_cg(b, rtol=0.0, maxiter=maxiter),
        sim.barrier, iters,
    )


def run(machine: Optional[Machine] = None, columns=None) -> FigureResult:
    """Regenerate the Fig. 9 CG solver figure as a FigureResult."""
    columns = columns or WEAK_SCALING_COLUMNS
    machine = machine or summit(nodes=nodes_needed(columns))
    fig = FigureResult(
        figure="Figure 9",
        title="Conjugate Gradient Solver (weak scaling, 2-D Poisson)",
        xlabel="Sockets/GPUs",
        ylabel="throughput (iterations/s)",
        columns=[column_label(c) for c in columns],
    )
    for sockets, gpus in columns:
        fig.series_for("Legate-GPU").add(
            gpus,
            _legate_cg(
                machine, ProcessorKind.GPU, gpus, gpus * PER_GPU_N,
                paper_legate,
            ),
        )
        fig.series_for("CuPy (1 GPU)").add(
            gpus,
            _legate_cg(machine, ProcessorKind.GPU, 1, PER_GPU_N, RuntimeConfig.cupy),
        )
        fig.series_for("PETSc-GPU").add(
            gpus, _petsc_cg(machine, ProcessorKind.GPU, gpus, gpus * PER_GPU_N)
        )
        fig.series_for("Legate-CPU").add(
            sockets,
            _legate_cg(
                machine, ProcessorKind.CPU_SOCKET, sockets,
                sockets * PER_SOCKET_N, paper_legate,
            ),
        )
        fig.series_for("SciPy").add(
            sockets,
            _legate_cg(
                machine, ProcessorKind.CPU_CORE, 1, PER_SOCKET_N, RuntimeConfig.scipy
            ),
        )
        fig.series_for("PETSc-CPU").add(
            sockets,
            _petsc_cg(machine, ProcessorKind.CPU_SOCKET, sockets, sockets * PER_SOCKET_N),
        )
    return fig


def main(argv=None):  # pragma: no cover - CLI entry
    """CLI: print the table; --profile exports timeline artifacts."""
    from repro.harness.figures import figure_main

    figure_main(run, "Regenerate Fig. 9 (CG weak scaling).", argv)


if __name__ == "__main__":  # pragma: no cover
    main()
