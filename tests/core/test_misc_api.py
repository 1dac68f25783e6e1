"""Odds and ends of the SciPy-compatible surface."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp

from tests.core.conftest import random_scipy_csr


class TestMiscSurface:
    def test_repr(self, rt):
        A = sp.eye(4, format="csr")
        text = repr(A)
        assert "4x4" in text and "CSR" in text and "4 stored" in text

    def test_getnnz(self, rt):
        A = sp.csr_matrix(random_scipy_csr(6, 6, seed=1))
        assert A.getnnz() == A.nnz

    def test_hermitian_transpose(self, rt):
        ref = random_scipy_csr(5, 5, seed=2, dtype=np.complex128)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(
            A.H.toarray(), ref.conj().T.toarray(), rtol=1e-12
        )

    def test_mean_axis(self, rt):
        ref = random_scipy_csr(6, 4, seed=3)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose(
            A.mean(axis=1).to_numpy(),
            np.asarray(ref.mean(axis=1)).ravel(),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            A.mean(axis=0).to_numpy(),
            np.asarray(ref.mean(axis=0)).ravel(),
            rtol=1e-12,
        )

    def test_ndim(self, rt):
        assert sp.eye(3).ndim == 2

    def test_dot_method(self, rt):
        ref = random_scipy_csr(5, 5, seed=4)
        A = sp.csr_matrix(ref)
        x = np.arange(5.0)
        np.testing.assert_allclose(A.dot(rnp.array(x)).to_numpy(), ref @ x, rtol=1e-12)

    def test_neg_and_div(self, rt):
        ref = random_scipy_csr(5, 5, seed=5)
        A = sp.csr_matrix(ref)
        np.testing.assert_allclose((-A).toarray(), -ref.toarray())
        np.testing.assert_allclose((A / 4.0).toarray(), ref.toarray() / 4.0)

    def test_scale_by_deferred_scalar(self, rt):
        """n * eye where n came out of a reduction (a Scalar)."""
        n = rnp.sum(rnp.ones(8))  # deferred 8.0
        A = sp.eye(8, format="csr") * n
        np.testing.assert_allclose(A.toarray(), 8 * np.eye(8))

    def test_asformat_identity(self, rt):
        A = sp.eye(3, format="csr")
        assert A.asformat("csr") is A

    def test_version_attribute(self):
        import repro

        assert repro.__version__

    def test_divide_by_deferred_scalar(self, rt):
        n = rnp.sum(rnp.ones(4))  # deferred 4.0
        A = sp.eye(4, format="csr") / n
        np.testing.assert_allclose(A.toarray(), np.eye(4) / 4.0)


FORMATS = (None, "csr", "csc", "coo", "dia", "bsr")


class TestFormatNames:
    """``format=`` and ``asformat`` accept SciPy's five names and reject
    the rest with SciPy's ``ValueError``."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_constructors_take_every_format(self, rt, fmt):
        import scipy.sparse as sps

        cases = [
            (sp.eye(5, 6, k=1, format=fmt), sps.eye(5, 6, k=1, format=fmt)),
            (sp.identity(4, format=fmt), sps.identity(4, format=fmt)),
            (
                sp.diags([[1.0, 2.0, 3.0], [4.0, 5.0]], [0, -1], shape=(3, 3), format=fmt),
                sps.diags([[1.0, 2.0, 3.0], [4.0, 5.0]], [0, -1], shape=(3, 3), format=fmt),
            ),
        ]
        for got, want in cases:
            assert got.format == want.format
            np.testing.assert_array_equal(got.toarray(), want.toarray())
        base = sp.random(6, 4, density=0.5, random_state=7)
        got = sp.random(6, 4, density=0.5, format=fmt, random_state=7)
        assert got.format == (fmt or "coo")
        want = sps.coo_matrix(base.toarray()).asformat(fmt)
        np.testing.assert_array_equal(got.toarray(), want.toarray())

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "dia", "bsr"])
    def test_asformat_bsr_from_every_class(self, rt, fmt):
        ref = random_scipy_csr(6, 6, seed=4)
        A = getattr(sp, f"{fmt}_matrix")(ref)
        B = A.asformat("bsr")
        assert isinstance(B, sp.bsr_matrix)
        np.testing.assert_array_equal(B.toarray(), ref.toarray())

    @pytest.mark.parametrize("name", ["ell", "sell", "hyb", "lil", "array"])
    def test_unknown_format_is_a_value_error(self, rt, name):
        for A in (sp.eye(4, format="csr"), sp.eye(4)):
            with pytest.raises(ValueError, match=f"Format '{name}' is unknown"):
                A.asformat(name)
        with pytest.raises(ValueError, match="is unknown"):
            sp.eye(4, format=name)
