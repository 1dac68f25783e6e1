"""COO/CSC/DIA formats and conversions against SciPy."""

import numpy as np
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp

from tests.core.conftest import random_scipy_csr


class TestCOO:
    def test_construction_and_roundtrip(self, rt):
        ref = random_scipy_csr(10, 8, seed=1).tocoo()
        A = sp.coo_matrix(ref)
        np.testing.assert_allclose(A.toarray(), ref.toarray())

    def test_duplicates_summed(self, rt):
        A = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([1, 1]), np.array([2, 2]))), shape=(3, 3)
        )
        assert A.nnz == 1
        assert A.toarray()[1, 2] == 3.0

    def test_matvec(self, rt):
        ref = random_scipy_csr(14, 11, seed=2).tocoo()
        A = sp.coo_matrix(ref)
        xh = np.random.default_rng(3).random(11)
        np.testing.assert_allclose((A @ rnp.array(xh)).to_numpy(), ref @ xh, rtol=1e-12)

    def test_transpose_is_free(self, rt):
        ref = random_scipy_csr(6, 9, seed=4).tocoo()
        A = sp.coo_matrix(ref)
        At = A.T
        assert At.shape == (9, 6)
        assert At.vals is A.vals
        np.testing.assert_allclose(At.toarray(), ref.T.toarray())

    def test_tocsr_shares_sorted_arrays(self, rt):
        ref = random_scipy_csr(8, 8, seed=5).tocoo()
        A = sp.coo_matrix(ref)
        B = A.tocsr()
        assert B.vals is A.vals  # canonical COO order == CSR order
        np.testing.assert_allclose(B.toarray(), ref.toarray())

    def test_tocsr_of_transpose_resorts(self, rt):
        ref = random_scipy_csr(8, 8, seed=6).tocoo()
        A = sp.coo_matrix(ref).T
        B = A.tocsr()
        np.testing.assert_allclose(B.toarray(), ref.T.toarray())

    def test_scale(self, rt):
        ref = random_scipy_csr(5, 5, seed=7).tocoo()
        A = sp.coo_matrix(ref)
        np.testing.assert_allclose((2.0 * A).toarray(), 2 * ref.toarray())


class TestCSC:
    def test_construction(self, rt):
        ref = random_scipy_csr(9, 7, seed=10).tocsc()
        A = sp.csc_matrix(ref)
        assert A.format == "csc"
        np.testing.assert_allclose(A.toarray(), ref.toarray())

    def test_indptr_indices_match_scipy(self, rt):
        ref = random_scipy_csr(9, 7, seed=11).tocsc()
        ref.sort_indices()
        A = sp.csc_matrix(ref)
        np.testing.assert_array_equal(A.indptr, ref.indptr)
        np.testing.assert_array_equal(A.indices, ref.indices)

    def test_matvec_scatter(self, rt):
        ref = random_scipy_csr(13, 9, seed=12)
        A = sp.csc_matrix(ref.tocsc())
        xh = np.random.default_rng(13).random(9)
        np.testing.assert_allclose((A @ rnp.array(xh)).to_numpy(), ref @ xh, rtol=1e-12)

    def test_rmatvec(self, rt):
        ref = random_scipy_csr(13, 9, seed=14)
        A = sp.csc_matrix(ref.tocsc())
        xh = np.random.default_rng(15).random(13)
        np.testing.assert_allclose((rnp.array(xh) @ A).to_numpy(), ref.T @ xh, rtol=1e-12)

    def test_csr_csc_roundtrip(self, rt):
        ref = random_scipy_csr(11, 11, seed=16)
        A = sp.csr_matrix(ref)
        back = A.tocsc().tocsr()
        np.testing.assert_allclose(back.toarray(), ref.toarray())
        np.testing.assert_array_equal(back.indptr, ref.indptr)

    def test_csc_sum_axes(self, rt):
        ref = random_scipy_csr(8, 6, seed=17).tocsc()
        A = sp.csc_matrix(ref)
        np.testing.assert_allclose(
            A.sum(axis=0).to_numpy(), np.asarray(ref.sum(axis=0)).ravel(), rtol=1e-12
        )
        np.testing.assert_allclose(
            A.sum(axis=1).to_numpy(), np.asarray(ref.sum(axis=1)).ravel(), rtol=1e-12
        )

    def test_matmat(self, rt):
        ref = random_scipy_csr(10, 7, seed=18).tocsc()
        A = sp.csc_matrix(ref)
        Xh = np.random.default_rng(19).random((7, 3))
        np.testing.assert_allclose((A @ rnp.array(Xh)).to_numpy(), ref @ Xh, rtol=1e-12)


class TestDIA:
    def make_ref(self, n=16, seed=20):
        rng = np.random.default_rng(seed)
        offsets = np.array([-3, -1, 0, 2])
        data = rng.random((len(offsets), n))
        return sps.dia_matrix((data, offsets), shape=(n, n))

    def test_construction(self, rt):
        ref = self.make_ref()
        A = sp.dia_matrix(ref)
        np.testing.assert_allclose(A.toarray(), ref.toarray())

    def test_from_data_offsets(self, rt):
        n = 8
        data = np.ones((2, n))
        A = sp.dia_matrix((data, [0, 1]), shape=(n, n))
        ref = sps.dia_matrix((data, [0, 1]), shape=(n, n))
        np.testing.assert_allclose(A.toarray(), ref.toarray())

    def test_matvec(self, rt):
        ref = self.make_ref(seed=21)
        A = sp.dia_matrix(ref)
        xh = np.random.default_rng(22).random(16)
        np.testing.assert_allclose((A @ rnp.array(xh)).to_numpy(), ref @ xh, rtol=1e-12)

    def test_rectangular_matvec(self, rt):
        data = np.ones((2, 10))
        ref = sps.dia_matrix((data, [0, 2]), shape=(8, 10))
        A = sp.dia_matrix(ref)
        xh = np.arange(10.0)
        np.testing.assert_allclose((A @ rnp.array(xh)).to_numpy(), ref @ xh, rtol=1e-12)

    def test_transpose(self, rt):
        ref = self.make_ref(seed=23)
        A = sp.dia_matrix(ref)
        np.testing.assert_allclose(A.T.toarray(), ref.T.toarray())

    def test_diagonal(self, rt):
        ref = self.make_ref(seed=24)
        A = sp.dia_matrix(ref)
        np.testing.assert_allclose(A.diagonal().to_numpy(), ref.diagonal(), rtol=1e-12)

    def test_tocsr(self, rt):
        ref = self.make_ref(seed=25)
        np.testing.assert_allclose(
            sp.dia_matrix(ref).tocsr().toarray(), ref.toarray()
        )

    def test_todia_roundtrip(self, rt):
        ref = self.make_ref(seed=26)
        A = sp.csr_matrix(ref.tocsr())
        np.testing.assert_allclose(A.todia().toarray(), ref.toarray())

    def test_scale(self, rt):
        ref = self.make_ref(seed=27)
        A = sp.dia_matrix(ref)
        np.testing.assert_allclose((0.5 * A).toarray(), 0.5 * ref.toarray())


class TestFormatDispatch:
    def test_asformat(self, rt):
        ref = random_scipy_csr(7, 7, seed=30)
        A = sp.csr_matrix(ref)
        for fmt in ("csr", "csc", "coo", "dia"):
            B = A.asformat(fmt)
            assert B.format == fmt
            np.testing.assert_allclose(B.toarray(), ref.toarray())

    def test_issparse(self, rt):
        assert sp.issparse(sp.eye(3))
        assert not sp.issparse(np.eye(3))

    def test_cross_format_construction(self, rt):
        ref = random_scipy_csr(6, 6, seed=31)
        A = sp.csr_matrix(ref)
        assert sp.coo_matrix(A).format == "coo"
        assert sp.csc_matrix(A).format == "csc"
        assert sp.dia_matrix(A).format == "dia"
        assert sp.csr_matrix(sp.coo_matrix(A)).format == "csr"
