"""CSR matrices against SciPy semantics."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp

from tests.core.conftest import random_scipy_csr


class TestConstruction:
    def test_from_scipy(self, rt):
        ref = random_scipy_csr(20, 15, seed=1)
        A = sp.csr_matrix(ref)
        assert A.shape == (20, 15)
        assert A.nnz == ref.nnz
        np.testing.assert_allclose(A.toarray(), ref.toarray())

    def test_from_dense(self, rt):
        dense = np.array([[1.0, 0, 2], [0, 0, 3], [4, 5, 0]])
        A = sp.csr_matrix(dense)
        np.testing.assert_allclose(A.toarray(), dense)
        assert A.nnz == 5

    def test_from_coo_triple(self, rt):
        A = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), (np.array([0, 2, 0]), np.array([1, 2, 1]))),
            shape=(3, 3),
        )
        # Duplicate (0,1) entries are summed: 1.0 + 3.0.
        assert A.nnz == 2
        assert A.toarray()[0, 1] == 4.0

    def test_from_csr_arrays(self, rt):
        data = np.array([1.0, 2.0, 3.0])
        indices = np.array([0, 2, 1])
        indptr = np.array([0, 2, 2, 3])
        A = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        expected = np.array([[1.0, 0, 2], [0, 0, 0], [0, 3, 0]])
        np.testing.assert_allclose(A.toarray(), expected)

    def test_empty_shape(self, rt):
        A = sp.csr_matrix((4, 5))
        assert A.nnz == 0
        np.testing.assert_array_equal(A.toarray(), np.zeros((4, 5)))

    def test_pos_encoding(self, rt):
        """Fig. 3: pos stores {lo, hi} pairs, indptr is derived."""
        ref = random_scipy_csr(10, 10, seed=2)
        A = sp.csr_matrix(ref)
        np.testing.assert_array_equal(A.indptr, ref.indptr)
        np.testing.assert_array_equal(A.indices, ref.indices)
        pos = A.pos.data
        np.testing.assert_array_equal(pos[:, 0], ref.indptr[:-1])
        np.testing.assert_array_equal(pos[:, 1], ref.indptr[1:])

    def test_dtype_override(self, rt):
        ref = random_scipy_csr(5, 5, seed=3)
        A = sp.csr_matrix(ref, dtype=np.complex128)
        assert A.dtype == np.complex128

    def test_integer_data_promoted_to_float(self, rt):
        A = sp.csr_matrix(
            (np.array([1, 2]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2)
        )
        assert A.dtype.kind == "f"


class TestProducts:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matvec(self, rt, dtype):
        ref = random_scipy_csr(30, 24, seed=4, dtype=dtype)
        A = sp.csr_matrix(ref)
        xh = np.random.default_rng(5).random(24).astype(dtype)
        x = rnp.array(xh)
        np.testing.assert_allclose((A @ x).to_numpy(), ref @ xh, rtol=1e-12)

    def test_matvec_numpy_operand(self, rt):
        ref = random_scipy_csr(10, 10, seed=6)
        A = sp.csr_matrix(ref)
        xh = np.arange(10.0)
        np.testing.assert_allclose((A @ xh).to_numpy(), ref @ xh, rtol=1e-12)

    def test_star_is_matmul(self, rt):
        ref = random_scipy_csr(10, 10, seed=7)
        A = sp.csr_matrix(ref)
        x = rnp.array(np.arange(10.0))
        np.testing.assert_allclose((A * x).to_numpy(), ref @ np.arange(10.0), rtol=1e-12)

    def test_rmatvec(self, rt):
        ref = random_scipy_csr(12, 17, seed=8)
        A = sp.csr_matrix(ref)
        xh = np.random.default_rng(9).random(12)
        out = rnp.array(xh) @ A
        np.testing.assert_allclose(out.to_numpy(), ref.T @ xh, rtol=1e-12)

    def test_matmat_dense(self, rt):
        ref = random_scipy_csr(15, 10, seed=10)
        A = sp.csr_matrix(ref)
        Xh = np.random.default_rng(11).random((10, 3))
        np.testing.assert_allclose((A @ rnp.array(Xh)).to_numpy(), ref @ Xh, rtol=1e-12)

    def test_spgemm(self, rt):
        a = random_scipy_csr(12, 9, density=0.3, seed=12)
        b = random_scipy_csr(9, 14, density=0.3, seed=13)
        C = sp.csr_matrix(a) @ sp.csr_matrix(b)
        assert C.format == "csr"
        np.testing.assert_allclose(C.toarray(), (a @ b).toarray(), rtol=1e-12)

    def test_spgemm_chain_matches_scipy(self, rt):
        a = random_scipy_csr(8, 8, density=0.4, seed=14)
        A = sp.csr_matrix(a)
        C = A @ A @ A
        np.testing.assert_allclose(C.toarray(), (a @ a @ a).toarray(), rtol=1e-12)

    def test_sddmm(self, rt):
        ref = random_scipy_csr(10, 8, density=0.4, seed=15)
        A = sp.csr_matrix(ref)
        rng = np.random.default_rng(16)
        C, D = rng.random((10, 4)), rng.random((8, 4))
        R = A.sddmm(rnp.array(C), rnp.array(D))
        expected = ref.multiply(C @ D.T).toarray()
        np.testing.assert_allclose(R.toarray(), expected, rtol=1e-12)

    def test_dimension_mismatch(self, rt):
        A = sp.csr_matrix(random_scipy_csr(5, 5, seed=17))
        with pytest.raises(ValueError):
            A @ rnp.ones(6)


class TestReductions:
    def test_diagonal(self, rt):
        ref = random_scipy_csr(12, 12, seed=18)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(A.diagonal().to_numpy(), ref.diagonal(), rtol=1e-12)

    def test_sum_all(self, rt):
        ref = random_scipy_csr(10, 10, seed=19)
        assert float(sp.csr_matrix(ref).sum()) == pytest.approx(ref.sum())

    def test_sum_axes(self, rt):
        ref = random_scipy_csr(10, 7, seed=20)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(
            A.sum(axis=1).to_numpy(), np.asarray(ref.sum(axis=1)).ravel(), rtol=1e-12
        )
        np.testing.assert_allclose(
            A.sum(axis=0).to_numpy(), np.asarray(ref.sum(axis=0)).ravel(), rtol=1e-12
        )

    def test_mean(self, rt):
        ref = random_scipy_csr(6, 6, seed=21)
        assert float(sp.csr_matrix(ref).mean()) == pytest.approx(ref.mean())


class TestValueOps:
    def test_scale(self, rt):
        ref = random_scipy_csr(8, 8, seed=22)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose((2.5 * A).toarray(), 2.5 * ref.toarray())
        np.testing.assert_allclose((A * 2.5).toarray(), 2.5 * ref.toarray())
        np.testing.assert_allclose((A / 2.0).toarray(), ref.toarray() / 2.0)
        np.testing.assert_allclose((-A).toarray(), -ref.toarray())

    def test_scale_shares_structure(self, rt):
        A = sp.csr_matrix(random_scipy_csr(8, 8, seed=23))
        B = 3.0 * A
        assert B.pos is A.pos and B.crd is A.crd

    def test_copy_independent(self, rt):
        A = sp.csr_matrix(random_scipy_csr(8, 8, seed=24))
        B = A.copy()
        C = 0.0 * A  # does not touch B
        np.testing.assert_allclose(B.toarray(), A.toarray())

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    def test_astype_and_conj(self, rt):
        ref = random_scipy_csr(6, 6, seed=25, dtype=np.complex128)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(A.conj().toarray(), ref.conj().toarray())
        # Complex->real discards the imaginary part (NumPy warns, like SciPy).
        assert A.astype(np.float64).dtype == np.float64

    def test_power(self, rt):
        ref = random_scipy_csr(6, 6, seed=26)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(A.power(2).toarray(), ref.power(2).toarray(), rtol=1e-12)

    def test_abs(self, rt):
        ref = random_scipy_csr(6, 6, seed=27)
        ref.data -= 0.5
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(abs(A).toarray(), abs(ref).toarray(), rtol=1e-12)

    def test_data_is_composable_with_numeric(self, rt):
        """The paper's interop claim: matrix values are numeric arrays."""
        A = sp.csr_matrix(random_scipy_csr(8, 8, seed=28))
        total = rnp.sum(A.data * 2.0)
        assert float(total) == pytest.approx(2 * A.toarray().sum())


class TestRowSlicing:
    def test_row_slice(self, rt):
        ref = random_scipy_csr(12, 9, seed=29)
        A = sp.csr_matrix(ref)
        sub = A[3:9]
        assert sub.shape == (6, 9)
        np.testing.assert_allclose(sub.toarray(), ref[3:9].toarray())

    def test_getrow(self, rt):
        ref = random_scipy_csr(6, 6, seed=30)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(A.getrow(2).toarray(), ref.getrow(2).toarray())

    def test_slice_shares_value_region(self, rt):
        A = sp.csr_matrix(random_scipy_csr(12, 9, seed=31))
        sub = A[3:9]
        assert sub.vals is A.vals


class TestTranspose:
    def test_transpose_is_csc_and_free(self, rt):
        A = sp.csr_matrix(random_scipy_csr(7, 5, seed=32))
        At = A.T
        assert At.format == "csc"
        assert At.shape == (5, 7)
        assert At.vals is A.vals
        np.testing.assert_allclose(At.toarray(), A.toarray().T)

    def test_double_transpose_identity(self, rt):
        A = sp.csr_matrix(random_scipy_csr(7, 5, seed=33))
        np.testing.assert_allclose(A.T.T.toarray(), A.toarray())
