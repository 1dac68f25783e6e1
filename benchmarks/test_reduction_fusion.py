"""Benchmark: reductions in the deferred window take the allreduce off
the critical path twice over (paper Fig. 9, §6.1).

The paper blames Legion's scalar-allreduce cost for the CG falloff once
kernels are fast.  With scalar reductions admitted to the fusion window
(``repro.legion.fusion``), ``norm(r)`` hoists beside ``vdot(r, z)``: a
CG iteration issues two allreduces where it issued three, the two that
shared a group share one tree, and no reduction waits behind the ``p``
update any more -- same bits, fewer launches, lower modeled seconds.
"""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.multigrid import TwoLevelGMG
from repro.apps.poisson import poisson2d_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit

ITERS = 6


def solve(app: str, gpus: int, fused: bool):
    """(x, allreduces, launches, modeled seconds) of one warm solve."""
    rt = Runtime(
        summit(nodes=gpus // 6).scope(ProcessorKind.GPU, gpus),
        RuntimeConfig.legate(fusion=fused),
    )
    with runtime_scope(rt):
        k = 4 * gpus + 3  # odd, as the two-level hierarchy wants
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(k * k)
        M = None
        if app == "gmg":
            M = TwoLevelGMG(
                A, k, coarse_rtol=0.0, coarse_maxiter=4
            ).as_preconditioner()
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1, M=M)  # warm-up
        t0 = rt.barrier()
        before = (rt.profiler.allreduces, rt.profiler.tasks_launched)
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=ITERS, M=M)
        t1 = rt.barrier()
        return (
            x.to_numpy(),
            rt.profiler.allreduces - before[0],
            rt.profiler.tasks_launched - before[1],
            t1 - t0,
        )


@pytest.mark.parametrize("gpus", [6, 48])
@pytest.mark.parametrize("app", ["cg", "gmg"])
def test_fused_reductions_beat_the_eager_path(benchmark, app, gpus):
    eager = benchmark.pedantic(
        lambda: solve(app, gpus, fused=False), rounds=1, iterations=1
    )
    fused = solve(app, gpus, fused=True)
    print(
        f"\n{app} on {gpus} GPUs, {ITERS} iterations: allreduces "
        f"{eager[1]} -> {fused[1]}, launches {eager[2]} -> {fused[2]}, "
        f"modeled {eager[3] * 1e3:.3f} -> {fused[3] * 1e3:.3f} ms "
        f"({eager[3] / fused[3]:.2f}x)"
    )
    assert np.array_equal(fused[0], eager[0])  # bitwise x
    assert fused[1] < eager[1]
    assert fused[2] < eager[2]
    assert fused[3] < eager[3]
