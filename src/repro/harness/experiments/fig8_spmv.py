"""Figure 8: weak scaling of an SpMV microbenchmark on banded matrices.

Trivially parallel (halo = band width); the paper's outcomes:

* Legate and PETSc weak-scale essentially flat on CPUs and GPUs;
* SciPy is flat and lowest (single-threaded, no scaling);
* Legate sits slightly below CuPy/PETSc on GPUs — the cost of reshaping
  its global-format local pieces for cuSPARSE (§3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.baselines.petsc import MatMPIAIJ, MPISim
from repro.harness.config import (
    WEAK_SCALING_COLUMNS,
    column_label,
    nodes_needed,
    paper_legate,
    reduced_size,
)
from repro.harness.figures import FigureResult
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

# Full-scale problem: rows per processor (weak scaling).
PER_GPU_ROWS = 25_000_000
PER_SOCKET_ROWS = 3 * PER_GPU_ROWS
BAND = 1  # tridiagonal band
ITERS = 8


def banded_scipy(n: int, band: int = BAND) -> sps.csr_matrix:
    """A banded test matrix (band diagonals of ones)."""
    diags = [np.full(n - abs(k), 1.0) for k in range(-band, band + 1)]
    return sps.diags(diags, list(range(-band, band + 1))).tocsr()


def _legate_throughput(
    machine: Machine,
    kind: ProcessorKind,
    procs: int,
    n_full: int,
    config_factory,
    iters: int = ITERS,
) -> float:
    n_build = reduced_size(n_full, procs)
    rt = Runtime(
        machine.scope(kind, procs),
        config_factory(data_scale=n_full / n_build),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(banded_scipy(n_build))
        x = rnp.ones(n_build)
        for _ in range(2):  # warm-up: staging + steady-state instances
            y = A @ x
        t0 = rt.barrier()
        for _ in range(iters):
            y = A @ x
        t1 = rt.barrier()
    return iters / (t1 - t0)


def _petsc_throughput(
    machine: Machine, kind: ProcessorKind, procs: int, n_full: int, iters: int = ITERS
) -> float:
    n_build = reduced_size(n_full, procs)
    sim = MPISim(machine.scope(kind, procs), data_scale=n_full / n_build)
    A = MatMPIAIJ(sim, banded_scipy(n_build))
    from repro.baselines.petsc import PetscVec

    x = PetscVec(sim, np.ones(n_build))
    y = A.mult(x)
    t0 = sim.barrier()
    for _ in range(iters):
        y = A.mult(x)
    t1 = sim.barrier()
    return iters / (t1 - t0)


def run(machine: Optional[Machine] = None, columns=None) -> FigureResult:
    """Regenerate the Fig. 8 SpMV microbenchmark as a FigureResult."""
    columns = columns or WEAK_SCALING_COLUMNS
    machine = machine or summit(nodes=nodes_needed(columns))
    fig = FigureResult(
        figure="Figure 8",
        title="SpMV Microbenchmark (weak scaling, banded matrix)",
        xlabel="Sockets/GPUs",
        ylabel="throughput (iterations/s)",
        columns=[column_label(c) for c in columns],
    )
    for sockets, gpus in columns:
        fig.series_for("Legate-GPU").add(
            gpus,
            _legate_throughput(
                machine, ProcessorKind.GPU, gpus, gpus * PER_GPU_ROWS,
                paper_legate,
            ),
        )
        fig.series_for("CuPy (1 GPU)").add(
            gpus,
            _legate_throughput(
                machine, ProcessorKind.GPU, 1, PER_GPU_ROWS, RuntimeConfig.cupy
            ),
        )
        fig.series_for("PETSc-GPU").add(
            gpus, _petsc_throughput(machine, ProcessorKind.GPU, gpus, gpus * PER_GPU_ROWS)
        )
        fig.series_for("Legate-CPU").add(
            sockets,
            _legate_throughput(
                machine, ProcessorKind.CPU_SOCKET, sockets,
                sockets * PER_SOCKET_ROWS, paper_legate,
            ),
        )
        fig.series_for("SciPy").add(
            sockets,
            _legate_throughput(
                machine, ProcessorKind.CPU_CORE, 1, PER_SOCKET_ROWS,
                RuntimeConfig.scipy,
            ),
        )
        fig.series_for("PETSc-CPU").add(
            sockets,
            _petsc_throughput(
                machine, ProcessorKind.CPU_SOCKET, sockets, sockets * PER_SOCKET_ROWS
            ),
        )
    return fig


def main():  # pragma: no cover - CLI entry
    """CLI: print the regenerated table."""
    print(run().format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
