"""Fused-vs-unfused measurement harness (task and kernel fusion).

Runs the two launch-overhead-bound solver workloads from the paper —
the Fig. 9 CG inner loop and the Fig. 10 GMG V-cycle PCG — either
**fused** (the ``legate`` default: deferred fusion window, merge-safe
groups executing as one generated loop nest) or **unfused**
(``fusion=False``: one launch per operation), and reports modeled solve
time, issue-clock launch overhead, modeled compute seconds (the
profiler's ``kernel_seconds``), launch / fusion / merge counters and a
bitwise digest of the solution vector.

``tests/harness/test_fusion_bench.py`` asserts the acceptance bars at
reduced sizes (>= 30 % fewer launches, strictly lower modeled launch
overhead and compute, at least one merged nest, identical bits);
``benchmarks/test_fusion.py`` asserts them at the default sizes.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit

PROCS = 2  # GPUs of one summit node
CG_GRID = 64  # 4096-row 2-D Poisson: small tasks, overhead-bound
CG_ITERS = 6
GMG_GRID = 63  # odd: the 2-level hierarchy coarsens (k-1)/2
GMG_ITERS = 4


def _digest(arr) -> str:
    data = arr.to_numpy()
    return hashlib.sha256(data.tobytes()).hexdigest()


def _measure(fusion: bool, setup: Callable, solve: Callable, iters: int) -> Dict:
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, PROCS),
        # Fusion measured alone: replays are charged in full on every
        # side.
        RuntimeConfig.legate(fusion=fusion, trace_replay_fraction=1.0),
    )
    with runtime_scope(rt):
        state = setup()
        solve(state, 1)  # warm-up: staging + instance steady state
        t0 = rt.barrier()
        snap = rt.profiler.snapshot()
        x = solve(state, iters)
        t1 = rt.barrier()
        delta = rt.profiler.since(snap)
        digest = _digest(x)
    return {
        "modeled_time_s": t1 - t0,
        "modeled_launch_overhead_s": delta.launch_overhead_seconds,
        "modeled_compute_s": delta.kernel_seconds,
        "tasks_launched": delta.tasks_launched,
        "fused_tasks": delta.fused_tasks,
        "regions_elided": delta.regions_elided,
        "kernel_merges": delta.kernel_merges,
        "solution_sha256": digest,
    }


def bench_cg(
    grid: int = CG_GRID, iters: int = CG_ITERS, fusion: bool = True
) -> Dict:
    """One fig9-style CG run; returns the metrics dict."""

    def setup():
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        return A, b

    def solve(state, maxiter):
        A, b = state
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter)
        return x

    return _measure(fusion, setup, solve, iters)


def bench_gmg(
    grid: int = GMG_GRID, iters: int = GMG_ITERS, fusion: bool = True
) -> Dict:
    """One fig10-style GMG-preconditioned CG run; returns metrics."""
    from repro.apps.multigrid import TwoLevelGMG

    if grid % 2 == 0:
        raise ValueError("GMG grid side must be odd")

    def setup():
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        gmg = TwoLevelGMG(A, grid, coarse_rtol=0.0, coarse_maxiter=8)
        return A, b, gmg.as_preconditioner()

    def solve(state, maxiter):
        A, b, M = state
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter, M=M)
        return x

    return _measure(fusion, setup, solve, iters)
