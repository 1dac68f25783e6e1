"""Iterative solvers on a 2-D Poisson problem (the Fig. 9/10 workloads).

Solves -Δu = 1 on a k x k grid with plain CG and with the two-level
geometric-multigrid-preconditioned CG, comparing iteration counts and
simulated execution time across processor counts.

Run:  python examples/poisson_solvers.py [--k 31] [--procs 1 3 6]
"""

import argparse


def solve_with(procs: int, k: int):
    from repro.apps.multigrid import gmg_preconditioned_cg
    from repro.apps.poisson import poisson2d_scipy
    from repro.legion import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind, summit

    import repro.numeric as rnp
    import repro.sparse as sp

    machine = summit(nodes=max(1, (procs + 5) // 6))
    rt = Runtime(machine.scope(ProcessorKind.GPU, procs), RuntimeConfig.legate())
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(k * k)

        cg_iters = [0]
        t0 = rt.barrier()
        x_cg, info = sp.linalg.cg(
            A, b, rtol=1e-8, maxiter=2000,
            callback=lambda _: cg_iters.__setitem__(0, cg_iters[0] + 1),
        )
        t_cg = rt.barrier() - t0
        assert info == 0

        t0 = rt.barrier()
        x_pcg, info, pcg_iters = gmg_preconditioned_cg(A, b, k, rtol=1e-8)
        t_pcg = rt.barrier() - t0
        assert info == 0

        residual = float(rnp.linalg.norm(b - A @ x_pcg))
    return cg_iters[0], t_cg, pcg_iters, t_pcg, residual


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=31, help="grid side (odd)")
    parser.add_argument("--procs", type=int, nargs="+", default=[1, 3, 6])
    args = parser.parse_args()

    print(f"2-D Poisson, {args.k}x{args.k} grid ({args.k**2} unknowns)")
    print(f"{'GPUs':>5} {'CG iters':>9} {'CG time':>10} {'PCG iters':>10} "
          f"{'PCG time':>10} {'residual':>10}")
    for procs in args.procs:
        cg_i, t_cg, pcg_i, t_pcg, resid = solve_with(procs, args.k)
        print(
            f"{procs:>5} {cg_i:>9} {t_cg*1e3:>8.2f}ms {pcg_i:>10} "
            f"{t_pcg*1e3:>8.2f}ms {resid:>10.2e}"
        )
    print("\n(The V-cycle cuts iteration counts; its many small tasks cost")
    print(" launch overhead — the trade-off behind the paper's Fig. 10.)")


if __name__ == "__main__":
    main()
