"""Figure 10: weak scaling of the geometric multigrid solver.

No distributed reference exists (the paper compares only against SciPy
and CuPy).  Outcomes to reproduce:

* Legate-CPU ≫ SciPy, with good weak scaling;
* CuPy ≈ 1.3x Legate-GPU at one GPU — the V-cycle launches many tasks
  small enough to expose Legate's task-launching and metadata overheads;
* Legate-GPU weak-scales at first, then degrades as the fast GPU kernels
  expose runtime overheads.
"""

from __future__ import annotations

import math
from typing import Optional

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.multigrid import TwoLevelGMG
from repro.apps.poisson import poisson2d_scipy
from repro.harness.config import (
    WEAK_SCALING_COLUMNS,
    column_label,
    nodes_needed,
    paper_legate,
)
from repro.harness.experiments.fig9_cg import iteration_rate
from repro.harness.figures import FigureResult
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

# Smaller per-GPU grids than Fig. 9: the V-cycle's coarse-level tasks
# must be small enough to expose runtime overheads (paper §6.1).
PER_GPU_N = 8_000_000
PER_SOCKET_N = 3 * PER_GPU_N
ITERS = 4
BUILD_CAP = 100_000


def _build_grid(n_full: int, procs: int) -> int:
    target = min(n_full, max(procs * 512, BUILD_CAP))
    k = max(9, int(math.sqrt(target)))
    return k if k % 2 == 1 else k + 1  # the 2-level hierarchy needs odd k


def _legate_gmg(
    machine: Machine,
    kind: ProcessorKind,
    procs: int,
    n_full: int,
    config_factory,
    iters: int = ITERS,
) -> float:
    k = _build_grid(n_full, procs)
    n_build = k * k
    rt = Runtime(
        machine.scope(kind, procs),
        config_factory(
            data_scale=n_full / n_build,
            comm_scale=math.sqrt(n_full) / k,
        ),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(n_build)
        gmg = TwoLevelGMG(A, k, coarse_rtol=0.0, coarse_maxiter=8)
        M = gmg.as_preconditioner()
        # Warm-up: setup (Galerkin SpGEMMs) + staging, then one PCG iter.
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1, M=M)
        return iteration_rate(
            lambda maxiter: sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter, M=M),
            rt.barrier, iters,
        )


def run(machine: Optional[Machine] = None, columns=None) -> FigureResult:
    """Regenerate the Fig. 10 multigrid figure as a FigureResult."""
    columns = columns or WEAK_SCALING_COLUMNS
    machine = machine or summit(nodes=nodes_needed(columns))
    fig = FigureResult(
        figure="Figure 10",
        title="Geometric Multi-Grid Solver (weak scaling, 2-level V-cycle PCG)",
        xlabel="Sockets/GPUs",
        ylabel="throughput (iterations/s)",
        columns=[column_label(c) for c in columns],
    )
    for sockets, gpus in columns:
        fig.series_for("Legate-GPU").add(
            gpus,
            _legate_gmg(
                machine, ProcessorKind.GPU, gpus, gpus * PER_GPU_N,
                paper_legate,
            ),
        )
        fig.series_for("CuPy (1 GPU)").add(
            gpus,
            _legate_gmg(machine, ProcessorKind.GPU, 1, PER_GPU_N, RuntimeConfig.cupy),
        )
        fig.series_for("Legate-CPU").add(
            sockets,
            _legate_gmg(
                machine, ProcessorKind.CPU_SOCKET, sockets,
                sockets * PER_SOCKET_N, paper_legate,
            ),
        )
        fig.series_for("SciPy").add(
            sockets,
            _legate_gmg(
                machine, ProcessorKind.CPU_CORE, 1, PER_SOCKET_N, RuntimeConfig.scipy
            ),
        )
    return fig


def main(argv=None):  # pragma: no cover - CLI entry
    """CLI: print the table; --profile exports timeline artifacts."""
    from repro.harness.figures import figure_main

    figure_main(run, "Regenerate Fig. 10 (GMG weak scaling).", argv)


if __name__ == "__main__":  # pragma: no cover
    main()
