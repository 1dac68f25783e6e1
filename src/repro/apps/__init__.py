"""The paper's evaluation workloads, written as SciPy programs.

Every application here is idiomatic SciPy/NumPy code against the drop-in
APIs (:mod:`repro.sparse`, :mod:`repro.numeric`) — the productivity claim
of the paper is that these programs run distributed unmodified.
"""

from repro.apps.poisson import poisson2d, poisson2d_scipy
from repro.apps.multigrid import TwoLevelGMG, gmg_preconditioned_cg
from repro.apps.rydberg import (
    blockade_state_count,
    blockade_states,
    rydberg_hamiltonian,
    rydberg_hamiltonian_scipy,
    simulate,
)
from repro.apps.matfact import MatrixFactorizationModel, sgd_epoch
from repro.apps.movielens import fractal_expand, synthetic_movielens

__all__ = [
    "MatrixFactorizationModel",
    "TwoLevelGMG",
    "blockade_state_count",
    "blockade_states",
    "fractal_expand",
    "gmg_preconditioned_cg",
    "poisson2d",
    "poisson2d_scipy",
    "rydberg_hamiltonian",
    "rydberg_hamiltonian_scipy",
    "sgd_epoch",
    "simulate",
    "synthetic_movielens",
]
