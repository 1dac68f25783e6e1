"""Application-level tests: the paper's workloads run and are correct."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps import (
    MatrixFactorizationModel,
    TwoLevelGMG,
    blockade_state_count,
    blockade_states,
    fractal_expand,
    gmg_preconditioned_cg,
    poisson2d,
    poisson2d_scipy,
    rydberg_hamiltonian,
    rydberg_hamiltonian_scipy,
    sgd_epoch,
    simulate,
    synthetic_movielens,
)
from repro.apps.movielens import load_dataset
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture(params=[1, 2], ids=["p1", "p2"])
def rt(request):
    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, request.param), RuntimeConfig.legate()
    )
    with runtime_scope(runtime):
        yield runtime


class TestPoisson:
    def test_matches_scipy(self, rt):
        ours = poisson2d(7)
        ref = poisson2d_scipy(7)
        np.testing.assert_allclose(ours.toarray(), ref.toarray())

    def test_spd(self, rt):
        ref = poisson2d_scipy(6)
        evals = np.linalg.eigvalsh(ref.toarray())
        assert evals.min() > 0

    def test_cg_solves_poisson(self, rt):
        k = 9
        A = poisson2d(k)
        b = rnp.ones(k * k)
        x, info = sp.linalg.cg(A, b, rtol=1e-9, maxiter=500)
        assert info == 0
        ref = spla.spsolve(poisson2d_scipy(k).tocsc(), np.ones(k * k))
        np.testing.assert_allclose(x.to_numpy(), ref, rtol=1e-5, atol=1e-7)


class TestMultigrid:
    def test_vcycle_reduces_error(self, rt):
        k = 15
        A = poisson2d(k)
        gmg = TwoLevelGMG(A, k)
        rng = np.random.default_rng(0)
        b = rnp.array(rng.random(k * k))
        e = gmg.vcycle(b)
        # One V-cycle applied as preconditioner: residual shrinks.
        r0 = float(rnp.linalg.norm(b))
        r1 = float(rnp.linalg.norm(b - A @ e))
        assert r1 < r0

    def test_galerkin_coarse_operator_shape(self, rt):
        k = 9
        gmg = TwoLevelGMG(poisson2d(k), k)
        kc = (k - 1) // 2
        assert gmg.Ac.shape == (kc * kc, kc * kc)

    def test_pcg_converges_faster_than_cg(self, rt):
        k = 15
        A = poisson2d(k)
        b = rnp.ones(k * k)
        plain = [0]
        sp.linalg.cg(A, b, rtol=1e-8, maxiter=400, callback=lambda _: plain.__setitem__(0, plain[0] + 1))
        x, info, pcg_iters = gmg_preconditioned_cg(A, b, k, rtol=1e-8)
        assert info == 0
        assert pcg_iters < plain[0]

    def test_pcg_solution_correct(self, rt):
        k = 9
        A = poisson2d(k)
        b = rnp.ones(k * k)
        x, info, _ = gmg_preconditioned_cg(A, b, k, rtol=1e-9)
        assert info == 0
        ref = spla.spsolve(poisson2d_scipy(k).tocsc(), np.ones(k * k))
        np.testing.assert_allclose(x.to_numpy(), ref, rtol=1e-4, atol=1e-6)

    def test_fullweight_restriction_option(self, rt):
        k = 9
        x, info, _ = gmg_preconditioned_cg(
            poisson2d(k), rnp.ones(k * k), k, rtol=1e-8, restriction="fullweight"
        )
        assert info == 0

    def test_fullweight_restriction_converges_where_injection_stalls(self, rt):
        """``R = P.T / 4`` keeps the V-cycle symmetric, so PCG converges
        at k = 47 (7 iterations) where the default injection, which is
        not a multiple of ``P.T``, runs to ``maxiter = 200``."""
        k = 47
        x, info, iters = gmg_preconditioned_cg(
            poisson2d(k), rnp.ones(k * k), k, rtol=1e-8, maxiter=10,
            restriction="fullweight",
        )
        assert info == 0
        assert iters <= 10

    def test_even_grid_rejected(self, rt):
        with pytest.raises(ValueError):
            TwoLevelGMG(poisson2d(7), 8)


class TestRydberg:
    def test_state_count_is_fibonacci(self):
        for n in (2, 3, 5, 8, 10):
            assert len(blockade_states(n)) == blockade_state_count(n)
        assert blockade_state_count(10) == 144

    def test_no_adjacent_excitations(self):
        for s in blockade_states(8):
            assert (s & (s << 1)) == 0

    def test_hamiltonian_hermitian(self, rt):
        H = rydberg_hamiltonian_scipy(8)
        np.testing.assert_allclose(H.toarray(), H.toarray().T)

    def test_hamiltonian_wide_band(self, rt):
        """Coordinates in a row reference a wide range of columns — the
        communication pattern the paper blames for Fig. 11's falloff."""
        H = rydberg_hamiltonian_scipy(12)
        coo = H.tocoo()
        bandwidth = np.abs(coo.row - coo.col).max()
        assert bandwidth > H.shape[0] / 4

    def test_evolution_preserves_norm(self, rt):
        H = rydberg_hamiltonian(8)
        res = simulate(H, t_final=0.5, step=0.1)
        assert res.success
        assert float(rnp.linalg.norm(res.y)) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_expm(self, rt):
        from scipy.linalg import expm

        n = 8
        Hs = rydberg_hamiltonian_scipy(n)
        H = rydberg_hamiltonian(n)
        res = simulate(H, t_final=0.4, step=0.05)
        dim = Hs.shape[0]
        psi0 = np.zeros(dim, dtype=np.complex128)
        psi0[0] = 1.0
        expected = expm(-1j * 0.4 * Hs.toarray()) @ psi0
        np.testing.assert_allclose(res.y.to_numpy(), expected, atol=1e-8)

    def test_rabi_oscillation_single_excitation(self, rt):
        """An isolated two-level atom Rabi-oscillates at frequency Ω."""
        H = rydberg_hamiltonian(1, omega=1.0, delta=0.0)
        res = simulate(H, t_final=np.pi, step=np.pi / 20)
        final = res.y.to_numpy()
        # After t = pi with Ω = 1: full population transfer to |1>.
        assert abs(final[1]) == pytest.approx(1.0, abs=1e-6)


class TestMovieLens:
    def test_synthetic_shapes(self):
        u, i, r = synthetic_movielens(500, 200, 5000, seed=1)
        assert len(u) == len(i) == len(r) == 5000
        assert u.max() < 500 and i.max() < 200
        assert r.min() >= 0.5 and r.max() <= 5.0

    def test_popularity_skew(self):
        u, i, r = synthetic_movielens(500, 200, 20000, seed=2)
        counts = np.bincount(i, minlength=200)
        assert counts[:20].sum() > counts[100:120].sum()

    def test_fractal_expand_doubles(self):
        base = synthetic_movielens(100, 50, 1000, seed=3)
        (u, i, r), shape = fractal_expand(base, (100, 50), factor=2, seed=3)
        assert shape == (200, 100)
        # ~2x ratings, minus replica collisions; pairs stay unique.
        assert 1600 <= len(u) <= 2000
        keys = u * 100 + i
        assert len(np.unique(keys)) == len(keys)
        assert u.max() < 200 and i.max() < 100

    def test_load_dataset_scaled(self):
        (u, i, r), spec = load_dataset("ml-10m", scale=0.001)
        assert spec.n_ratings == 10_000_054
        assert len(u) >= 512

    def test_load_expanded_dataset(self):
        (u, i, r), spec = load_dataset("ml-50m", scale=0.0005)
        assert spec.name == "ml-50m"
        assert len(u) > 0


class TestMatrixFactorization:
    def test_training_reduces_loss(self, rt):
        u, i, r = synthetic_movielens(120, 60, 4000, seed=4)
        model = MatrixFactorizationModel(120, 60, k=8, lr=0.1, mu=float(r.mean()))
        before = model.rmse(u, i, r)
        rng = np.random.default_rng(0)
        for _ in range(3):
            sgd_epoch(model, u, i, r, batch_size=512, rng=rng)
        after = model.rmse(u, i, r)
        assert after < before

    def test_rmse_reasonable_after_training(self, rt):
        u, i, r = synthetic_movielens(200, 100, 8000, seed=5)
        model = MatrixFactorizationModel(
            200, 100, k=8, lr=1.0, reg=0.002, mu=float(r.mean())
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            sgd_epoch(model, u, i, r, batch_size=1024, rng=rng)
        # Bias + factor model on this data beats the raw std dev.
        assert model.rmse(u, i, r) < 0.9 * r.std()

    def test_stats_track_samples(self, rt):
        # 50x30 grid caps the unique-pair generator at 750 ratings.
        u, i, r = synthetic_movielens(50, 30, 1000, seed=6)
        assert len(u) == 750
        model = MatrixFactorizationModel(50, 30, k=4)
        samples, _ = sgd_epoch(model, u, i, r, batch_size=250, rng=np.random.default_rng(2))
        assert samples == 750
        assert model.stats.samples == 750  # unique pairs: none collapse
        assert model.stats.batches == 3

    def test_memory_footprint_grows_with_dataset(self, rt):
        model = MatrixFactorizationModel(1000, 500, k=16)
        assert model.memory_footprint_bytes(10**6) < model.memory_footprint_bytes(10**7)

