"""Quantum simulation of a Rydberg atom chain (the Fig. 11 workload).

Evolves the blockade-restricted wave function of an n-atom chain under
the Rydberg Hamiltonian with 8th-order integration, and reports the
Rydberg density ⟨n_i⟩ per atom — the observable MIS-solving experiments
read out — plus the communication profile that explains the paper's
weak-scaling behaviour.

Run:  python examples/rydberg_simulation.py [--atoms 12] [--procs 2]
"""

import argparse

import numpy as np


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", type=int, default=12)
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--t-final", type=float, default=2.0)
    parser.add_argument("--step", type=float, default=0.1)
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--delta", type=float, default=1.2)
    args = parser.parse_args()

    from repro.apps.rydberg import blockade_states, rydberg_hamiltonian, simulate
    from repro.legion import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind, summit

    machine = summit(nodes=max(1, (args.procs + 5) // 6))
    rt = Runtime(machine.scope(ProcessorKind.GPU, args.procs), RuntimeConfig.legate())
    with runtime_scope(rt):
        H = rydberg_hamiltonian(args.atoms, omega=args.omega, delta=args.delta)
        dim = H.shape[0]
        print(f"{args.atoms}-atom chain: {dim} blockade states "
              f"(vs 2^{args.atoms} = {2**args.atoms} unrestricted)")
        print(f"Hamiltonian: nnz={H.nnz}, running GBS8 with dt={args.step}")

        result = simulate(H, t_final=args.t_final, step=args.step)
        psi = result.y.to_numpy()
        print(f"norm after evolution: {np.linalg.norm(psi):.12f}")
        print(f"RHS evaluations:      {result.nfev}")

        probs = np.abs(psi) ** 2
        states = blockade_states(args.atoms)
        density = np.zeros(args.atoms)
        for prob, state in zip(probs, states):
            for atom in range(args.atoms):
                if (state >> atom) & 1:
                    density[atom] += prob
        print("Rydberg density per atom:")
        print("  " + " ".join(f"{d:.3f}" for d in density))

        prof = rt.profiler
        print(f"simulated time:  {rt.elapsed()*1e3:.2f} ms")
        print(f"tasks launched:  {prof.tasks_launched}")
        print("bytes moved:     "
              + ", ".join(f"{k}={v:,}" for k, v in sorted(prof.copy_bytes.items())))
        print("(wide-band Hamiltonian => near-all-to-all halos; see Fig. 11)")


if __name__ == "__main__":
    main()
