"""Tests for the PETSc-like explicitly-partitioned baseline."""

import numpy as np
import pytest
import scipy.sparse as sps

from repro.apps.poisson import poisson2d_scipy
from repro.baselines.petsc import KSP, MatMPIAIJ, MPISim, PetscVec
from repro.machine import ProcessorKind, summit


@pytest.fixture
def sim():
    machine = summit(nodes=2)
    return MPISim(machine.scope(ProcessorKind.GPU, 4))


def random_csr(n, m, density=0.2, seed=0):
    rng = np.random.default_rng(seed)
    return sps.random(n, m, density=density, random_state=rng, format="csr")


class TestMatSplit:
    def test_diag_offdiag_partition(self, sim):
        mat = random_csr(40, 40, seed=1)
        A = MatMPIAIJ(sim, mat)
        assert sum(A.diag_nnz) + sum(A.offdiag_nnz) == mat.nnz

    def test_single_rank_has_no_ghosts(self):
        machine = summit(nodes=1)
        solo = MPISim(machine.scope(ProcessorKind.GPU, 1))
        A = MatMPIAIJ(solo, random_csr(20, 20, seed=2))
        assert A.offdiag_nnz == [0]
        assert A.ghost_from == [{}]

    def test_banded_matrix_ghosts_are_band_sized(self, sim):
        n = 64
        mat = sps.diags(
            [np.ones(n), np.ones(n - 1), np.ones(n - 1)], [0, 1, -1]
        ).tocsr()
        A = MatMPIAIJ(sim, mat)
        for ghosts in A.ghost_from:
            assert sum(ghosts.values()) <= 2  # one element per side


class TestMult:
    def test_matches_scipy(self, sim):
        mat = random_csr(30, 30, seed=3)
        A = MatMPIAIJ(sim, mat)
        x = PetscVec(sim, np.random.default_rng(4).random(30))
        y = A.mult(x)
        np.testing.assert_allclose(y.data, mat @ x.data, rtol=1e-12)

    def test_ghost_exchange_advances_clocks(self, sim):
        mat = random_csr(32, 32, density=0.5, seed=5)
        A = MatMPIAIJ(sim, mat)
        x = PetscVec(sim, np.ones(32))
        before = sim.messages
        A.mult(x)
        assert sim.messages > before
        assert sim.elapsed() > 0


class TestVec:
    def test_axpy(self, sim):
        x = PetscVec(sim, np.arange(8.0))
        y = PetscVec(sim, np.ones(8))
        y.axpy(2.0, x)
        np.testing.assert_allclose(y.data, 1 + 2 * np.arange(8.0))

    def test_dot_allreduces(self, sim):
        x = PetscVec(sim, np.arange(8.0))
        before = sim.allreduces
        val = x.dot(x)
        assert val == pytest.approx(float(np.dot(x.data, x.data)))
        assert sim.allreduces == before + 1

    def test_norm(self, sim):
        x = PetscVec(sim, np.array([3.0, 4.0]))
        assert x.norm() == pytest.approx(5.0)


class TestKSP:
    def test_cg_solves_poisson(self, sim):
        mat = poisson2d_scipy(8)
        A = MatMPIAIJ(sim, mat)
        b = PetscVec(sim, np.ones(64))
        ksp = KSP(sim, A)
        x = ksp.solve_cg(b, rtol=1e-10, maxiter=500)
        np.testing.assert_allclose(mat @ x.data, b.data, atol=1e-7)
        assert ksp.iterations > 0

    def test_cg_iteration_count_matches_scipy(self, sim):
        import scipy.sparse.linalg as spla

        mat = poisson2d_scipy(10)
        A = MatMPIAIJ(sim, mat)
        b = PetscVec(sim, np.ones(100))
        ksp = KSP(sim, A)
        ksp.solve_cg(b, rtol=1e-8, maxiter=1000)
        count = []
        spla.cg(mat, np.ones(100), rtol=1e-8, callback=lambda _: count.append(1))
        assert abs(ksp.iterations - len(count)) <= 3

    def test_fixed_iteration_mode(self, sim):
        mat = poisson2d_scipy(6)
        ksp = KSP(sim, MatMPIAIJ(sim, mat))
        ksp.solve_cg(PetscVec(sim, np.ones(36)), rtol=0.0, maxiter=5)
        assert ksp.iterations == 5

    def test_zero_start_takes_no_matmult(self, sim, monkeypatch):
        """``x=None`` starts from ``r = b``, as KSPSolve does for a zero
        initial guess; a given ``x`` pays its residual's MatMult."""
        mat = poisson2d_scipy(6)
        A = MatMPIAIJ(sim, mat)
        calls = []
        mult = MatMPIAIJ.mult

        def counted(self, x):
            calls.append(1)
            return mult(self, x)

        monkeypatch.setattr(MatMPIAIJ, "mult", counted)
        b = PetscVec(sim, np.ones(36))
        x_none = KSP(sim, A).solve_cg(b, rtol=0.0, maxiter=3)
        assert len(calls) == 3
        x_zero = KSP(sim, A).solve_cg(
            b, x=PetscVec.zeros(sim, 36), rtol=0.0, maxiter=3
        )
        assert len(calls) == 3 + 4
        assert x_none.data.tobytes() == x_zero.data.tobytes()


class TestScaling:
    def test_data_scale_slows_compute(self):
        machine = summit(nodes=1)
        times = []
        for scale in (1.0, 100.0):
            sim = MPISim(machine.scope(ProcessorKind.GPU, 2), data_scale=scale)
            A = MatMPIAIJ(sim, random_csr(64, 64, seed=6))
            x = PetscVec(sim, np.ones(64))
            A.mult(x)
            times.append(sim.elapsed())
        assert times[1] > times[0]

    def test_comm_scale_independent(self):
        machine = summit(nodes=2)
        sims = []
        for comm in (1.0, 1000.0):
            sim = MPISim(
                machine.scope(ProcessorKind.GPU, 6), data_scale=1.0, comm_scale=comm
            )
            A = MatMPIAIJ(sim, random_csr(60, 60, density=0.4, seed=7))
            A.mult(PetscVec(sim, np.ones(60)))
            sims.append(sim.elapsed())
        assert sims[1] > sims[0]

    def test_petsc_sim_factory(self):
        machine = summit(nodes=1)
        sim = MPISim(machine.scope(ProcessorKind.CPU_SOCKET, 2))
        assert sim.size == 2
