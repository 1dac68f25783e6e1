"""Tests for the dense array library against NumPy semantics."""

import numpy as np
import pytest

import repro.numeric as rnp


class TestCreation:
    def test_zeros_ones_full(self, rt):
        np.testing.assert_array_equal(rnp.zeros(5).to_numpy(), np.zeros(5))
        np.testing.assert_array_equal(rnp.ones((3, 2)).to_numpy(), np.ones((3, 2)))
        np.testing.assert_array_equal(rnp.full(4, 2.5).to_numpy(), np.full(4, 2.5))

    def test_array_roundtrip(self, rt):
        data = np.arange(10.0)
        arr = rnp.array(data)
        np.testing.assert_array_equal(arr.to_numpy(), data)
        # to_numpy returns a copy: mutating it leaves the array intact.
        arr.to_numpy()[0] = 99
        assert arr.to_numpy()[0] == 0

    def test_asarray_idempotent(self, rt):
        a = rnp.ones(3)
        assert rnp.asarray(a) is a

    def test_arange_linspace(self, rt):
        np.testing.assert_array_equal(rnp.arange(6).to_numpy(), np.arange(6))
        np.testing.assert_allclose(
            rnp.linspace(0, 1, 5).to_numpy(), np.linspace(0, 1, 5)
        )

    def test_zeros_like_preserves_dtype(self, rt):
        a = rnp.ones(4, ) .astype(np.complex128)
        z = rnp.zeros_like(a)
        assert z.dtype == np.complex128

    def test_3d_rejected(self, rt):
        with pytest.raises(ValueError):
            rnp.array(np.zeros((2, 2, 2)))


class TestElementwise:
    def test_binary_ops(self, rt):
        a = rnp.array(np.arange(1.0, 9.0))
        b = rnp.array(np.arange(8.0) + 0.5)
        np.testing.assert_allclose((a + b).to_numpy(), a.to_numpy() + b.to_numpy())
        np.testing.assert_allclose((a - b).to_numpy(), a.to_numpy() - b.to_numpy())
        np.testing.assert_allclose((a * b).to_numpy(), a.to_numpy() * b.to_numpy())
        np.testing.assert_allclose((a / b).to_numpy(), a.to_numpy() / b.to_numpy())
        np.testing.assert_allclose((a**2).to_numpy(), a.to_numpy() ** 2)

    def test_scalar_operands(self, rt):
        a = rnp.array(np.arange(4.0))
        np.testing.assert_allclose((a + 1).to_numpy(), np.arange(4.0) + 1)
        np.testing.assert_allclose((1 + a).to_numpy(), np.arange(4.0) + 1)
        np.testing.assert_allclose((2 - a).to_numpy(), 2 - np.arange(4.0))
        np.testing.assert_allclose((1 / (a + 1)).to_numpy(), 1 / (np.arange(4.0) + 1))

    def test_inplace_ops(self, rt):
        a = rnp.array(np.arange(4.0))
        a += 1
        a *= 2
        np.testing.assert_allclose(a.to_numpy(), (np.arange(4.0) + 1) * 2)

    def test_inplace_with_array(self, rt):
        a = rnp.array(np.ones(6))
        b = rnp.array(np.arange(6.0))
        a += b
        np.testing.assert_allclose(a.to_numpy(), 1 + np.arange(6.0))

    def test_unary_ops(self, rt):
        a = rnp.array(np.array([-2.0, -0.5, 1.0, 4.0]))
        np.testing.assert_allclose((-a).to_numpy(), -a.to_numpy())
        np.testing.assert_allclose(abs(a).to_numpy(), np.abs(a.to_numpy()))
        np.testing.assert_allclose(rnp.sqrt(abs(a)).to_numpy(), np.sqrt(np.abs(a.to_numpy())))
        np.testing.assert_allclose(rnp.exp(a).to_numpy(), np.exp(a.to_numpy()))
        np.testing.assert_allclose(rnp.square(a).to_numpy(), a.to_numpy() ** 2)

    def test_shape_mismatch_raises(self, rt):
        with pytest.raises(ValueError):
            rnp.ones(3) + rnp.ones(4)

    def test_dtype_promotion(self, rt):
        a = rnp.ones(3)
        c = a * (1 + 2j)
        assert c.dtype == np.complex128
        np.testing.assert_allclose(c.to_numpy(), np.ones(3) * (1 + 2j))

    def test_complex_conj_real_imag(self, rt):
        data = np.array([1 + 2j, 3 - 4j])
        a = rnp.array(data)
        np.testing.assert_allclose(a.conj().to_numpy(), data.conj())
        np.testing.assert_allclose(a.real.to_numpy(), data.real)
        np.testing.assert_allclose(a.imag.to_numpy(), data.imag)
        assert a.real.dtype == np.float64

    def test_2d_elementwise(self, rt):
        data = np.arange(12.0).reshape(4, 3)
        a = rnp.array(data)
        np.testing.assert_allclose((a * 2 + 1).to_numpy(), data * 2 + 1)

    def test_maximum_minimum(self, rt):
        a = rnp.array(np.array([1.0, 5.0, 3.0]))
        b = rnp.array(np.array([2.0, 4.0, 3.0]))
        np.testing.assert_array_equal(rnp.maximum(a, b).to_numpy(), [2, 5, 3])
        np.testing.assert_array_equal(rnp.minimum(a, 2.0).to_numpy(), [1, 2, 2])


class TestReductions:
    def test_sum_mean(self, rt):
        data = np.arange(10.0)
        a = rnp.array(data)
        assert float(rnp.sum(a)) == pytest.approx(45.0)
        assert float(rnp.mean(a)) == pytest.approx(4.5)

    def test_sum_2d(self, rt):
        data = np.arange(12.0).reshape(3, 4)
        assert float(rnp.sum(rnp.array(data))) == pytest.approx(data.sum())

    def test_minmax(self, rt):
        a = rnp.array(np.array([3.0, -1.0, 7.0, 2.0]))
        assert float(rnp.amax(a)) == 7.0
        assert float(rnp.amin(a)) == -1.0

    def test_prod(self, rt):
        a = rnp.array(np.array([1.0, 2.0, 3.0, 4.0]))
        assert float(rnp.prod(a)) == pytest.approx(24.0)

    def test_dot(self, rt):
        a = rnp.array(np.arange(5.0))
        b = rnp.array(np.arange(5.0) + 1)
        assert float(rnp.dot(a, b)) == pytest.approx(np.dot(a.to_numpy(), b.to_numpy()))

    def test_vdot_conjugates(self, rt):
        a = rnp.array(np.array([1 + 1j, 2 - 1j]))
        b = rnp.array(np.array([3 + 0j, 1 + 1j]))
        expected = np.vdot(a.to_numpy(), b.to_numpy())
        assert complex(rnp.vdot(a, b)) == pytest.approx(expected)

    def test_norm(self, rt):
        data = np.array([3.0, 4.0])
        assert float(rnp.linalg.norm(rnp.array(data))) == pytest.approx(5.0)

    def test_norm_complex_is_real(self, rt):
        data = np.array([3j, 4.0])
        val = float(rnp.linalg.norm(rnp.array(data)))
        assert val == pytest.approx(5.0)

    def test_norm_inf(self, rt):
        data = np.array([-7.0, 3.0])
        assert float(rnp.linalg.norm(rnp.array(data), ord=np.inf)) == 7.0


class TestScalar:
    def test_lazy_arithmetic(self, rt):
        a = rnp.array(np.arange(4.0))
        s = rnp.sum(a)  # 6.0
        t = (s + 1) * 2 / 7 - 1  # 1.0
        assert float(t) == pytest.approx(1.0)

    def test_comparisons_sync(self, rt):
        s = rnp.sum(rnp.ones(4))
        assert s > 3
        assert s <= 4.0
        assert s == 4.0

    def test_scalar_sqrt_neg_abs(self, rt):
        s = rnp.sum(rnp.ones(9))
        assert float(s.sqrt()) == pytest.approx(3.0)
        assert float(-s) == -9.0
        assert float(abs(-s)) == 9.0

    def test_scalar_in_elementwise(self, rt):
        a = rnp.array(np.arange(1.0, 5.0))
        nrm = rnp.linalg.norm(a)
        unit = a / nrm
        assert float(rnp.linalg.norm(unit)) == pytest.approx(1.0)

    def test_item(self, rt):
        assert rnp.sum(rnp.ones(3)).item() == pytest.approx(3.0)

    def test_reflected_pow_floordiv_mod(self, rt):
        s = rnp.sum(rnp.array(np.arange(1.0, 6.0)))  # 15.0
        assert float(2 ** s) == 2.0 ** 15
        assert float(s // 2) == 7.0 and float(s % 2) == 1.0
        assert float(31 // s) == 2.0 and float(31 % s) == 1.0
        assert float(s // s) == 1.0 and float(s % s) == 0.0

    def test_real_imag(self, rt):
        z = rnp.sum(rnp.array(np.array([1 + 2j, 3 - 1j])))
        assert complex(z.real) == 4.0 and complex(z.imag) == 1.0
        s = rnp.sum(rnp.ones(3))
        assert float(s.real) == 3.0 and float(s.imag) == 0.0

    def test_new_combinators_stay_lazy(self, rt):
        """None of them waits: the reduction is still in the window."""
        a = rnp.array(np.arange(1.0, 6.0))
        rt.barrier()
        syncs = rt.profiler.allreduces
        s = rnp.sum(a)
        lazy = [2 ** s, s // 2, s % 2, 7 // s, 7 % s, s.real, s.imag]
        assert rt.profiler.allreduces == syncs  # nothing ran yet
        assert all(v.future.roots is not None for v in lazy)
        assert [float(v) for v in lazy] == [
            2.0 ** 15, 7.0, 1.0, 0.0, 7.0, 15.0, 0.0
        ]

    def test_mean_of_empty_is_a_silent_nan(self, rt):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = float(rnp.mean(rnp.zeros(0)))
        assert np.isnan(value)


class TestRandom:
    def test_deterministic_given_seed(self, rt):
        rnp.random.seed(7)
        a = rnp.random.rand(32).to_numpy()
        rnp.random.seed(7)
        b = rnp.random.rand(32).to_numpy()
        np.testing.assert_array_equal(a, b)

    def test_in_unit_interval(self, rt):
        a = rnp.random.rand(100).to_numpy()
        assert (a >= 0).all() and (a < 1).all()

    def test_distinct_draws(self, rt):
        rnp.random.seed(8)
        a = rnp.random.rand(16).to_numpy()
        b = rnp.random.rand(16).to_numpy()
        assert not np.array_equal(a, b)

    def test_normal_moments(self, rt):
        rnp.random.seed(9)
        a = rnp.random.standard_normal(4000).to_numpy()
        assert abs(a.mean()) < 0.1
        assert abs(a.std() - 1.0) < 0.1


class TestIndexing:
    def test_int_getitem(self, rt):
        a = rnp.array(np.arange(10.0))
        assert a[3] == 3.0

    def test_slice_copy(self, rt):
        data = np.arange(10.0)
        a = rnp.array(data)
        np.testing.assert_array_equal(a[2:7].to_numpy(), data[2:7])
        np.testing.assert_array_equal(a[::2].to_numpy(), data[::2])
        np.testing.assert_array_equal(a[1::3].to_numpy(), data[1::3])

    def test_slice_is_copy_not_view(self, rt):
        a = rnp.array(np.arange(5.0))
        s = a[1:3]
        a += 100
        np.testing.assert_array_equal(s.to_numpy(), [1.0, 2.0])

    def test_slice_assign_array(self, rt):
        a = rnp.array(np.zeros(8))
        a[2:5] = rnp.array(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(
            a.to_numpy(), [0, 0, 1, 2, 3, 0, 0, 0]
        )

    def test_slice_assign_scalar(self, rt):
        a = rnp.array(np.zeros(6))
        a[1:4] = 5.0
        np.testing.assert_array_equal(a.to_numpy(), [0, 5, 5, 5, 0, 0])

    def test_strided_assign(self, rt):
        a = rnp.array(np.zeros(6))
        a[::2] = rnp.array(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(a.to_numpy(), [1, 0, 2, 0, 3, 0])

    def test_gather_rows_1d(self, rt):
        a = rnp.array(np.arange(10.0) * 10)
        idx = rnp.array(np.array([7, 1, 1, 4]), dtype=np.int64)
        np.testing.assert_array_equal(a[idx].to_numpy(), [70, 10, 10, 40])

    def test_gather_rows_2d(self, rt):
        data = np.arange(12.0).reshape(6, 2)
        a = rnp.array(data)
        idx = rnp.array(np.array([5, 0, 3]), dtype=np.int64)
        np.testing.assert_array_equal(a[idx].to_numpy(), data[[5, 0, 3]])

    def test_scatter_add_accumulates_duplicates(self, rt):
        a = rnp.array(np.zeros(5))
        idx = rnp.array(np.array([1, 3, 1]), dtype=np.int64)
        vals = rnp.array(np.array([1.0, 2.0, 4.0]))
        rnp.scatter_add(a, idx, vals)
        np.testing.assert_array_equal(a.to_numpy(), [0, 5, 0, 2, 0])

    def test_scatter_add_2d(self, rt):
        a = rnp.array(np.zeros((4, 2)))
        idx = rnp.array(np.array([2, 0]), dtype=np.int64)
        vals = rnp.array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        rnp.scatter_add(a, idx, vals)
        expected = np.zeros((4, 2))
        expected[2] = [1, 2]
        expected[0] = [3, 4]
        np.testing.assert_array_equal(a.to_numpy(), expected)


class TestMatmulTranspose:
    def test_matvec(self, rt):
        A = np.arange(12.0).reshape(4, 3)
        x = np.array([1.0, 2.0, 3.0])
        out = rnp.array(A) @ rnp.array(x)
        np.testing.assert_allclose(out.to_numpy(), A @ x)

    def test_matmat(self, rt):
        A = np.arange(12.0).reshape(4, 3)
        B = np.arange(6.0).reshape(3, 2)
        out = rnp.array(A) @ rnp.array(B)
        np.testing.assert_allclose(out.to_numpy(), A @ B)

    def test_vecvec_is_dot(self, rt):
        a, b = np.arange(4.0), np.arange(4.0) + 1
        out = rnp.array(a) @ rnp.array(b)
        assert float(out) == pytest.approx(a @ b)

    def test_transpose(self, rt):
        A = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(rnp.array(A).T.to_numpy(), A.T)

    def test_matmul_shape_check(self, rt):
        with pytest.raises(ValueError):
            rnp.ones((3, 2)) @ rnp.ones((3, 2))


class TestComposition:
    def test_power_iteration_style_loop(self, rt):
        """The dense half of Fig. 1: normalize repeatedly."""
        rnp.random.seed(3)
        x = rnp.random.rand(64)
        for _ in range(3):
            x /= rnp.linalg.norm(x)
        assert float(rnp.linalg.norm(x)) == pytest.approx(1.0)

    def test_partition_reuse_avoids_copies(self, rt):
        """Element-wise chains after the first op move no data."""
        if rt.num_procs == 1:
            pytest.skip("needs multiple processors")
        a = rnp.array(np.arange(64.0))
        b = rnp.array(np.arange(64.0))
        c = a + b
        snap = rt.profiler.snapshot()
        for _ in range(5):
            c = c * 2.0 + 1.0
        delta = rt.profiler.since(snap)
        assert delta.total_copy_bytes() == 0


class TestRandomExtended:
    def test_uniform_bounds(self, rt):
        rnp.random.seed(11)
        a = rnp.random.uniform(-2.0, 3.0, size=500).to_numpy()
        assert (a >= -2.0).all() and (a < 3.0).all()
        assert a.min() < 0 < a.max()

    def test_integers(self, rt):
        rnp.random.seed(12)
        a = rnp.random.integers(5, 15, size=200)
        assert a.dtype == np.int64
        vals = a.to_numpy()
        assert (vals >= 5).all() and (vals < 15).all()

    def test_normal_parameters(self, rt):
        rnp.random.seed(13)
        a = rnp.random.normal(10.0, 0.5, size=4000).to_numpy()
        assert abs(a.mean() - 10.0) < 0.1
        assert abs(a.std() - 0.5) < 0.1

    def test_shards_draw_different_streams(self, rt):
        """Per-shard generators must not produce identical halves."""
        if rt.num_procs == 1:
            pytest.skip("needs two shards")
        rnp.random.seed(14)
        a = rnp.random.rand(64).to_numpy()
        assert not np.array_equal(a[:32], a[32:])
