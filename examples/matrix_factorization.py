"""Recommender-model training with SDDMM (the Fig. 12 workload).

Trains the biased matrix-factorization model on a synthetic
MovieLens-like dataset with mini-batch SGD, reporting RMSE per epoch and
training throughput in samples/second of simulated time.

Run:  python examples/matrix_factorization.py [--procs 2] [--epochs 8]
"""

import argparse

import numpy as np


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=1500)
    parser.add_argument("--items", type=int, default=600)
    parser.add_argument("--ratings", type=int, default=40_000)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4096)
    parser.add_argument("--procs", type=int, default=2)
    args = parser.parse_args()

    from repro.apps.matfact import MatrixFactorizationModel, sgd_epoch
    from repro.apps.movielens import synthetic_movielens
    from repro.legion import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind, summit

    machine = summit(nodes=max(1, (args.procs + 5) // 6))
    rt = Runtime(machine.scope(ProcessorKind.GPU, args.procs), RuntimeConfig.legate())

    users, items, ratings = synthetic_movielens(
        args.users, args.items, args.ratings, seed=0
    )
    # Hold out 10% for validation.
    n_train = int(0.9 * len(users))
    train = (users[:n_train], items[:n_train], ratings[:n_train])
    valid = (users[n_train:], items[n_train:], ratings[n_train:])

    with runtime_scope(rt):
        model = MatrixFactorizationModel(
            args.users, args.items, k=args.k, lr=1.0, reg=0.002,
            mu=float(train[2].mean()),
        )
        rng = np.random.default_rng(0)
        print(f"training on {len(train[0])} ratings "
              f"({args.users} users x {args.items} items, k={args.k}, "
              f"{args.procs} simulated GPUs)")
        print(f"{'epoch':>6} {'train-batch rmse':>17} {'valid rmse':>11} "
              f"{'samples/s (sim)':>16}")
        for epoch in range(args.epochs):
            t0 = rt.barrier()
            samples, loss = sgd_epoch(
                model, *train, batch_size=args.batch, rng=rng
            )
            t1 = rt.barrier()
            vrmse = model.rmse(*valid)
            print(f"{epoch:>6} {loss:>17.4f} {vrmse:>11.4f} "
                  f"{samples / (t1 - t0):>16.0f}")
        # Counted from the flushed groups: the sampled product shares
        # a fused launch with the row expansion.
        sddmm = sum(
            names.count("csr:R(i,j)=C(i,k)*D(j,k):gpu")
            for names, _, _ in rt.fusion_log
        )
        print(f"\nSDDMM launches: {sddmm}")


if __name__ == "__main__":
    main()
