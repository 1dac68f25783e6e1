"""Extending the library: write your own distributed sparse operation.

This walks through exactly what §4.1/Fig. 4 of the paper shows — defining
a new operation with the constraint-based task API, without knowing
anything about how other operations partition data.  The operation here
is a fused "residual" kernel, r = b - A @ x, in one task instead of two.

Run:  python examples/custom_operation.py
"""

import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.constraints import AutoTask
from repro.distal.codegen import segment_sums
from repro.legion import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit


def fused_residual(A, x, b):
    """r = b - A @ x as a single task launch (fusion saves a pass)."""
    rt = A.runtime

    # The kernel: plain vectorized NumPy over the shard's global bounds,
    # the same shape as the DISTAL-generated task in the paper's Fig. 7.
    # Row sums go through the library's per-row segmented sum, so each
    # row's rounding error depends on that row alone (a running sum over
    # the tile would drown small rows behind the 4096-weighted diagonal).
    def kernel(ctx):
        pos, crd, vals = ctx.arrays["pos"], ctx.arrays["crd"], ctx.arrays["vals"]
        xg, bg, rg = ctx.arrays["x"], ctx.arrays["b"], ctx.arrays["r"]
        pr = ctx.rects["pos"]
        rlo, rhi = pr.lo[0], pr.hi[0]
        if rhi <= rlo:
            return
        lo, hi = pos[rlo:rhi, 0], pos[rlo:rhi, 1]
        jlo, jhi = int(lo[0]), int(hi[-1])
        contrib = vals[jlo:jhi] * xg.take(crd[jlo:jhi])
        rg[rlo:rhi] = bg[rlo:rhi] - segment_sums(contrib, lo - jlo, hi - lo)

    def cost(ctx):
        nnz = ctx.rects["crd"].volume()
        rows = ctx.rects["pos"].volume() // 2
        return 2.0 * nnz + rows, nnz * 24.0 + rows * 40.0

    r = rnp.empty(A.shape[0])
    # The Fig. 4 pattern: declare stores + constraints, let the solver
    # pick concrete partitions that reuse what already exists.
    task = AutoTask(rt, "fused_residual", kernel, cost)
    task.add_output("r", r.store)
    task.add_input("pos", A.pos)
    task.add_input("crd", A.crd)
    task.add_input("vals", A.vals)
    task.add_input("x", x.store)
    task.add_input("b", b.store)
    task.add_alignment_constraint(r.store, A.pos)
    task.add_alignment_constraint(r.store, b.store)
    task.add_image_constraint(A.pos, [A.crd, A.vals], kind="range")
    task.add_image_constraint(A.crd, x.store, kind="coordinate")
    task.execute()
    return r


def main():
    machine = summit(nodes=1)
    rt = Runtime(machine.scope(ProcessorKind.GPU, 3), RuntimeConfig.legate())
    with runtime_scope(rt):
        n = 4096
        ref = sps.random(n, n, density=5.0 / n, random_state=0, format="csr")
        ref = (ref + n * sps.eye(n)).tocsr()
        A = sp.csr_matrix(ref)
        rnp.random.seed(1)
        x = rnp.random.rand(n)
        b = rnp.random.rand(n)

        # Unfused: two launches (SpMV, then subtract).
        snap = rt.profiler.snapshot()
        r_unfused = b - A @ x
        unfused_launches = rt.profiler.since(snap).tasks_launched

        # Fused: one launch.
        snap = rt.profiler.snapshot()
        r_fused = fused_residual(A, x, b)
        fused_launches = rt.profiler.since(snap).tasks_launched

        err = float(rnp.linalg.norm(r_fused - r_unfused))
        print(f"unfused launches: {unfused_launches}, fused: {fused_launches}")
        print(f"max deviation:    {err:.2e}")
        assert err < 1e-8
        print("the fused operation composes with everything else:")
        print(f"  ||r|| = {float(rnp.linalg.norm(r_fused)):.6f}")


if __name__ == "__main__":
    main()
