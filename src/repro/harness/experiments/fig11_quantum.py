"""Figure 11: weak scaling of the Rydberg quantum simulation.

Outcomes to reproduce (paper §6.1):

* Legate (CPU and GPU) ≫ SciPy; CuPy ≈ 1.4x Legate at one GPU (the RK
  stages launch many small tasks);
* weak-scaling efficiency degrades with processor count — the wide-band
  Hamiltonian makes every processor exchange data with most others;
* 1-4 GPUs beat CPUs soundly (NVLink); beyond one node the GPU series
  sinks to and below the CPU series — at 16 processors the 4-GPU-per-
  node configuration has *half* the NIC bandwidth per byte exchanged of
  16 CPU sockets spread over 8 nodes;
* the 64-GPU run exhausts framebuffer memory (halo regions make memory
  scale imperfectly).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.rydberg import blockade_state_count, rydberg_hamiltonian_scipy
from repro.harness.config import paper_legate
from repro.harness.figures import FigureResult
from repro.integrate import solve_ivp
from repro.legion import OutOfMemoryError
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

PROC_COUNTS = [1, 2, 4, 8, 16, 32, 64]
GPUS_PER_NODE = 4  # the paper uses 4 of Summit's 6 GPUs for this app
DIM_PER_PROC = 400_000  # full-scale quantum amplitudes per processor
STEPS = 2


def _full_dim(procs: int) -> int:
    """Smallest blockade space >= procs * DIM_PER_PROC.

    Like the paper, the application cannot pick arbitrary sizes — the
    state space is a Fibonacci number of the atom count, so the problem
    can only approximately double (§6.1).
    """
    n = 8
    while blockade_state_count(n) < procs * DIM_PER_PROC:
        n += 1
    return blockade_state_count(n)


def _build_atoms(procs: int) -> int:
    """Smallest chain whose blockade space has >= 512 states/processor."""
    target = max(512 * procs, 20_000)
    n = 8
    while blockade_state_count(n) < target:
        n += 1
    return n


def _quantum_throughput(
    machine: Machine,
    kind: ProcessorKind,
    procs: int,
    dim_full: int,
    config_factory,
    per_node: Optional[int] = None,
    steps: int = STEPS,
) -> Tuple[Optional[float], Optional[str]]:
    """Returns ``(throughput, oom_detail)``: on OOM the throughput is
    None and the detail names the memory, region, rect and task that
    overflowed (surfaced as a table footnote)."""
    n_atoms = _build_atoms(procs)
    dim_build = blockade_state_count(n_atoms)
    rt = Runtime(
        machine.scope(kind, procs, per_node=per_node),
        config_factory(data_scale=dim_full / dim_build),
    )
    try:
        with runtime_scope(rt):
            H = sp.csr_matrix(rydberg_hamiltonian_scipy(n_atoms))
            psi = np.zeros(dim_build, dtype=np.complex128)
            psi[0] = 1.0
            y = rnp.array(psi)
            rhs = lambda t, v: (H @ v) * (-1j)  # noqa: E731
            # One warm-up step to reach instance steady state.
            res = solve_ivp(rhs, (0.0, 0.01), y, method="GBS8", step=0.01)
            y = res.y
            t0 = rt.barrier()
            solve_ivp(rhs, (0.0, 0.01 * steps), y, method="GBS8", step=0.01)
            t1 = rt.barrier()
        return steps / (t1 - t0), None
    except OutOfMemoryError as exc:
        return None, exc.describe()


def run(machine: Optional[Machine] = None, proc_counts: Optional[List[int]] = None) -> FigureResult:
    """Regenerate the Fig. 11 quantum figure as a FigureResult."""
    proc_counts = proc_counts or PROC_COUNTS
    # Enough nodes for the largest column as *sockets* (2/node) and as
    # GPUs (4 of 6 used per node).
    machine = machine or summit(nodes=max(1, max(proc_counts) // 2))
    fig = FigureResult(
        figure="Figure 11",
        title="Quantum Simulation (weak scaling, Rydberg chain, RK8)",
        xlabel="Sockets or GPUs",
        ylabel="throughput (iterations/s)",
        columns=[str(p) for p in proc_counts],
    )
    for procs in proc_counts:
        dim_full = _full_dim(procs)
        fig.series_for("Legate-GPU").add(
            procs,
            *_quantum_throughput(
                machine, ProcessorKind.GPU, procs, dim_full,
                paper_legate, per_node=GPUS_PER_NODE,
            ),
        )
        fig.series_for("Legate-CPU").add(
            procs,
            *_quantum_throughput(
                machine, ProcessorKind.CPU_SOCKET, procs, dim_full,
                paper_legate,
            ),
        )
        fig.series_for("CuPy (1 GPU)").add(
            procs,
            *_quantum_throughput(
                machine, ProcessorKind.GPU, 1, _full_dim(1), RuntimeConfig.cupy
            ),
        )
        fig.series_for("SciPy").add(
            procs,
            *_quantum_throughput(
                machine, ProcessorKind.CPU_CORE, 1, _full_dim(1),
                RuntimeConfig.scipy,
            ),
        )
    if fig.series_for("Legate-GPU").points[-1][1] is None:
        fig.add_note(
            "Legate-GPU at 64 GPUs ran out of framebuffer memory "
            "(halo regions grow with the machine; paper §6.1)."
        )
    return fig


def main():  # pragma: no cover - CLI entry
    """CLI: print the regenerated table."""
    print(run().format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
