"""Iterative solvers and eigensolvers against SciPy results."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import repro.numeric as rnp
import repro.sparse as sp
from repro.core.linalg import LinearOperator, aslinearoperator

from tests.core.conftest import random_scipy_csr


def spd_matrix(n, seed=0):
    """A well-conditioned SPD matrix (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    a = sps.random(n, n, density=0.15, random_state=rng, format="csr")
    a = 0.5 * (a + a.T) + n * sps.eye(n)
    return a.tocsr()


def poisson1d(n):
    return sps.diags(
        [2 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1]
    ).tocsr()


def nonsym_matrix(n, seed=1):
    rng = np.random.default_rng(seed)
    a = sps.random(n, n, density=0.2, random_state=rng, format="csr")
    return (a + n * sps.eye(n)).tocsr()


class TestCG:
    def test_converges_to_solution(self, rt):
        ref = spd_matrix(40, seed=2)
        b = np.random.default_rng(3).random(40)
        A = sp.csr_matrix(ref)
        x, info = sp.linalg.cg(A, rnp.array(b), rtol=1e-10)
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-7)

    def test_x0(self, rt):
        ref = spd_matrix(20, seed=4)
        b = np.ones(20)
        xs = spla.cg(ref, b, rtol=1e-12)[0]
        A = sp.csr_matrix(ref)
        x, info = sp.linalg.cg(A, rnp.array(b), x0=rnp.array(xs), rtol=1e-10)
        assert info == 0

    def test_maxiter_reports_nonconvergence(self, rt):
        ref = poisson1d(64)
        b = np.ones(64)
        x, info = sp.linalg.cg(sp.csr_matrix(ref), rnp.array(b), maxiter=2, rtol=1e-14)
        assert info == 2

    def test_preconditioned(self, rt):
        ref = spd_matrix(30, seed=5)
        b = np.random.default_rng(6).random(30)
        A = sp.csr_matrix(ref)
        dinv = rnp.array(1.0 / ref.diagonal())
        M = LinearOperator((30, 30), matvec=lambda r: r * dinv)
        x, info = sp.linalg.cg(A, rnp.array(b), M=M, rtol=1e-10)
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-7)

    def test_callback_called(self, rt):
        ref = spd_matrix(16, seed=7)
        hits = []
        sp.linalg.cg(
            sp.csr_matrix(ref),
            rnp.ones(16),
            rtol=1e-10,
            callback=lambda xk: hits.append(1),
        )
        assert len(hits) > 0

    def test_iteration_count_close_to_scipy(self, rt):
        """Same algorithm, same conditioning: similar iteration counts."""
        ref = poisson1d(128)
        b = np.ones(128)
        ours = []
        sp.linalg.cg(
            sp.csr_matrix(ref), rnp.array(b), rtol=1e-8,
            callback=lambda xk: ours.append(1),
        )
        theirs = []
        spla.cg(ref, b, rtol=1e-8, callback=lambda xk: theirs.append(1))
        assert abs(len(ours) - len(theirs)) <= 3


class TestOtherKrylov:
    @pytest.mark.parametrize("solver", ["cgs", "bicg", "bicgstab"])
    def test_nonsymmetric_solvers(self, rt, solver):
        ref = nonsym_matrix(30, seed=8)
        b = np.random.default_rng(9).random(30)
        fn = getattr(sp.linalg, solver)
        x, info = fn(sp.csr_matrix(ref), rnp.array(b), rtol=1e-10)
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-6)

    def test_gmres(self, rt):
        ref = nonsym_matrix(30, seed=10)
        b = np.random.default_rng(11).random(30)
        x, info = sp.linalg.gmres(sp.csr_matrix(ref), rnp.array(b), rtol=1e-10)
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-6)

    def test_gmres_with_restart(self, rt):
        ref = nonsym_matrix(40, seed=12)
        b = np.ones(40)
        x, info = sp.linalg.gmres(
            sp.csr_matrix(ref), rnp.array(b), restart=5, rtol=1e-8
        )
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-5)

    def test_bicgstab_complex(self, rt):
        ref = nonsym_matrix(20, seed=13).astype(np.complex128)
        ref = ref + 1j * sps.eye(20)
        b = np.random.default_rng(14).random(20) + 0.5j
        x, info = sp.linalg.bicgstab(
            sp.csr_matrix(ref.tocsr()), rnp.array(b), rtol=1e-10, maxiter=500
        )
        assert info == 0
        np.testing.assert_allclose(ref @ x.to_numpy(), b, atol=1e-6)


# The systems above, by solver: (matrix, right-hand side, keywords).
ZERO_START_SYSTEMS = {
    "cg": (spd_matrix(40, seed=2), np.random.default_rng(3).random(40), {}),
    "cgs": (nonsym_matrix(30, seed=8), np.random.default_rng(9).random(30), {}),
    "bicg": (nonsym_matrix(30, seed=8), np.random.default_rng(9).random(30), {}),
    "bicgstab": (
        nonsym_matrix(30, seed=8), np.random.default_rng(9).random(30), {}
    ),
    "gmres": (nonsym_matrix(40, seed=12), np.ones(40), {"restart": 5}),
}


class TestZeroStart:
    """One zero-start rule: ``x0=None`` takes ``r = b`` without an SpMV,
    and gives the bits of ``b - A @ 0``."""

    @pytest.mark.parametrize("solver", list(ZERO_START_SYSTEMS))
    def test_none_is_bitwise_a_zero_x0(self, rt, solver):
        ref, b, kwargs = ZERO_START_SYSTEMS[solver]
        fn = getattr(sp.linalg, solver)
        A, rhs = sp.csr_matrix(ref), rnp.array(b)
        x_none, info_none = fn(A, rhs, rtol=1e-10, **kwargs)
        x_zero, info_zero = fn(A, rhs, x0=rnp.zeros(b.shape[0]), rtol=1e-10, **kwargs)
        assert info_none == info_zero == 0
        assert x_none.to_numpy().tobytes() == x_zero.to_numpy().tobytes()

    @pytest.mark.parametrize("solver", ["cg", "cgs", "bicg", "bicgstab"])
    def test_none_issues_no_spmv_before_the_loop(self, rt, solver, monkeypatch):
        """The first SpMV a zero-start solve issues is the loop's.
        (A GMRES solve with ``maxiter=0`` never formed one: no case.)"""
        ref, b, kwargs = ZERO_START_SYSTEMS[solver]
        A, rhs = sp.csr_matrix(ref), rnp.array(b)
        names = []
        launch = type(rt).launch

        def logged(self, task):
            names.append(task.name)
            return launch(self, task)

        monkeypatch.setattr(type(rt), "launch", logged)
        getattr(sp.linalg, solver)(A, rhs, maxiter=0, **kwargs)
        assert not any("A(i,j)*x(j)" in name for name in names), names


class TestEigen:
    def test_power_iteration(self, rt):
        ref = spd_matrix(30, seed=15)
        eig, vec = sp.linalg.power_iteration(sp.csr_matrix(ref), iters=100)
        expected = spla.eigsh(ref, k=1, which="LA")[0][0]
        assert float(eig) == pytest.approx(expected, rel=1e-4)

    def test_eigsh_largest(self, rt):
        ref = spd_matrix(40, seed=16)
        vals = sp.linalg.eigsh(sp.csr_matrix(ref), k=3, which="LA", maxiter=39)
        expected = np.sort(spla.eigsh(ref, k=3, which="LA")[0])
        np.testing.assert_allclose(vals, expected, rtol=1e-6)

    def test_eigsh_smallest(self, rt):
        ref = poisson1d(32)
        vals = sp.linalg.eigsh(sp.csr_matrix(ref), k=2, which="SA", maxiter=32)
        expected = np.sort(spla.eigsh(ref, k=2, which="SA")[0])
        np.testing.assert_allclose(vals, expected, rtol=1e-5, atol=1e-8)

    def test_eigsh_vectors(self, rt):
        ref = spd_matrix(24, seed=17)
        vals, vecs = sp.linalg.eigsh(
            sp.csr_matrix(ref), k=1, which="LA", return_eigenvectors=True, maxiter=23
        )
        v = vecs[0].to_numpy()
        residual = np.linalg.norm(ref @ v - vals[-1] * v) / np.linalg.norm(v)
        assert residual < 1e-5

    def test_eigsh_k_validation(self, rt):
        with pytest.raises(ValueError):
            sp.linalg.eigsh(sp.csr_matrix(poisson1d(5)), k=5)


class TestNorms:
    def test_fro(self, rt):
        ref = random_scipy_csr(8, 8, seed=18)
        assert float(sp.linalg.norm(sp.csr_matrix(ref))) == pytest.approx(
            spla.norm(ref)
        )

    def test_inf_norm(self, rt):
        ref = random_scipy_csr(8, 8, seed=19)
        assert float(sp.linalg.norm(sp.csr_matrix(ref), ord=np.inf)) == pytest.approx(
            spla.norm(ref, ord=np.inf)
        )

    def test_one_norm(self, rt):
        ref = random_scipy_csr(8, 8, seed=20)
        assert float(sp.linalg.norm(sp.csr_matrix(ref), ord=1)) == pytest.approx(
            spla.norm(ref, ord=1)
        )


class TestLinearOperator:
    def test_aslinearoperator_sparse(self, rt):
        ref = random_scipy_csr(10, 10, seed=21)
        op = aslinearoperator(sp.csr_matrix(ref))
        x = np.random.default_rng(22).random(10)
        np.testing.assert_allclose(op.matvec(rnp.array(x)).to_numpy(), ref @ x, rtol=1e-12)

    def test_transpose_operator(self, rt):
        ref = random_scipy_csr(8, 8, seed=23)
        op = aslinearoperator(sp.csr_matrix(ref)).T
        x = np.ones(8)
        np.testing.assert_allclose(op.matvec(rnp.array(x)).to_numpy(), ref.T @ x, rtol=1e-12)

    def test_matmul_syntax(self, rt):
        op = LinearOperator((3, 3), matvec=lambda v: v * 2.0)
        out = op @ rnp.ones(3)
        np.testing.assert_allclose(out.to_numpy(), 2 * np.ones(3))
