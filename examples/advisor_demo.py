"""Advisor demo: a CG solve on a 2-D Poisson operator.

Run it directly (executes on the ambient runtime):

    python examples/advisor_demo.py [--k 32] [--maxiter 8]

or, without executing any kernels, through the advisor — a dry run of
the real runtime that reports partition choices, communication volume
per channel class, per-memory peak footprint and modeled time on the
requested machine:

    python -m repro.analysis advise examples/advisor_demo.py \\
        --machine summit:4

Under the advisor the convergence test reads NaN (kernels are skipped),
so the loop runs to ``maxiter`` — the conservative, maximal plan.
"""

import argparse


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32, help="grid edge (k*k unknowns)")
    parser.add_argument("--maxiter", type=int, default=8)
    args = parser.parse_args()

    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.apps.poisson import poisson2d_scipy

    A = sp.csr_matrix(poisson2d_scipy(args.k))
    b = rnp.ones(A.shape[0])
    x, info = sp.linalg.cg(A, b, rtol=1e-8, maxiter=args.maxiter)
    residual = rnp.linalg.norm(b - A @ x)
    print(f"poisson {A.shape[0]} unknowns, nnz={A.nnz}, info={info}")
    print(f"residual: {float(residual):.3e}")


if __name__ == "__main__":
    main()
