"""Benchmark: tracing closes the small-task overhead gap (paper §6.1).

The paper attributes Legate's single-GPU losses on GMG and the quantum
simulation to task-launching overheads and cites dynamic tracing as the
future fix.  With the tracing extension implemented, the gap to CuPy on
the overhead-bound quantum step narrows measurably.
"""

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.rydberg import rydberg_hamiltonian_scipy
from repro.integrate import solve_ivp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit

N_ATOMS = 18
DATA_SCALE = 20.0
STEPS = 3


def quantum_step_time(traced: bool) -> float:
    machine = summit(nodes=1)
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, 1),
        RuntimeConfig.legate(data_scale=DATA_SCALE),
    )
    with runtime_scope(rt):
        H = sp.csr_matrix(rydberg_hamiltonian_scipy(N_ATOMS))
        psi = np.zeros(H.shape[0], dtype=np.complex128)
        psi[0] = 1.0
        y = rnp.array(psi)
        rhs = lambda t, v: (H @ v) * (-1j)  # noqa: E731

        def one_step(state):
            return solve_ivp(rhs, (0.0, 0.01), state, method="GBS8", step=0.01).y

        y = one_step(y)  # warm-up
        trace = rt.trace("gbs8-step")  # the runtime owns its traces
        if traced:
            with trace:
                y = one_step(y)
        t0 = rt.barrier()
        for _ in range(STEPS):
            if traced:
                with trace:
                    y = one_step(y)
            else:
                y = one_step(y)
        t1 = rt.barrier()
    return (t1 - t0) / STEPS


def test_tracing_narrows_overhead_gap(benchmark):
    untraced = benchmark.pedantic(
        lambda: quantum_step_time(traced=False), rounds=1, iterations=1
    )
    traced = quantum_step_time(traced=True)
    print(f"\nGBS8 step: untraced {untraced*1e3:.2f} ms, "
          f"traced {traced*1e3:.2f} ms "
          f"({untraced/traced:.2f}x)")
    assert traced < untraced
