"""Property-based tests: invariants of the sparse stack under random
matrices, shapes and processor counts (hypothesis)."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.numeric as rnp
import repro.sparse as sp
from tests.core.skew import power_law_csr
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop, summit
from tests.core.conftest import tiling_blocksize

# derandomize: examples are a function of the test body alone, and the
# ``.hypothesis/`` example database is neither read nor written, so a
# tier-1 run gives the same verdict in every checkout.
_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scipy_matrices(draw, square=False, max_n=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = n if square else draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    mat = sps.random(n, m, density=density, random_state=rng, format="csr")
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


@st.composite
def runtimes(draw):
    procs = draw(st.integers(min_value=1, max_value=2))
    return Runtime(
        laptop().scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
    )


class TestCSRInvariants:
    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes())
    def test_roundtrip_dense(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            np.testing.assert_allclose(A.toarray(), mat.toarray())

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes())
    def test_pos_is_monotone_and_covers_crd(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            pos = A.pos.data
            assert (pos[:, 1] >= pos[:, 0]).all()
            if len(pos) > 1:
                assert (pos[1:, 0] == pos[:-1, 1]).all()
            if len(pos):
                assert pos[0, 0] == 0
                assert pos[-1, 1] == A.nnz

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes())
    def test_indices_sorted_within_rows(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            pos, crd = A.pos.data, A.crd.data
            for lo, hi in pos:
                row = crd[lo:hi]
                assert (np.diff(row) > 0).all()

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes(), seed=st.integers(0, 999))
    def test_spmv_matches_scipy(self, mat, rt, seed):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            x = np.random.default_rng(seed).standard_normal(mat.shape[1])
            ours = (A @ rnp.array(x)).to_numpy()
            np.testing.assert_allclose(ours, mat @ x, rtol=1e-10, atol=1e-12)

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes())
    def test_transpose_involution(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            np.testing.assert_allclose(A.T.T.toarray(), mat.toarray())

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(), rt=runtimes())
    def test_conversion_cycle(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            back = A.tocoo().tocsr().tocsc().tocsr()
            np.testing.assert_allclose(back.toarray(), mat.toarray())
            np.testing.assert_array_equal(back.indptr, A.indptr)


class TestAlgebraProperties:
    @settings(**_SETTINGS)
    @given(
        n=st.integers(2, 16),
        d1=st.floats(0.0, 0.5),
        d2=st.floats(0.0, 0.5),
        seed=st.integers(0, 999),
        rt=runtimes(),
    )
    def test_add_commutes(self, n, d1, d2, seed, rt):
        rng = np.random.default_rng(seed)
        a = sps.random(n, n, density=d1, random_state=rng, format="csr")
        b = sps.random(n, n, density=d2, random_state=rng, format="csr")
        with runtime_scope(rt):
            A, B = sp.csr_matrix(a), sp.csr_matrix(b)
            np.testing.assert_allclose(
                (A + B).toarray(), (B + A).toarray(), rtol=1e-12
            )

    @settings(**_SETTINGS)
    @given(
        n=st.integers(2, 14),
        seed=st.integers(0, 999),
        alpha=st.floats(-3, 3, allow_nan=False),
        rt=runtimes(),
    )
    def test_scaling_distributes_over_matvec(self, n, seed, alpha, rt):
        rng = np.random.default_rng(seed)
        a = sps.random(n, n, density=0.4, random_state=rng, format="csr")
        x = rng.standard_normal(n)
        with runtime_scope(rt):
            A = sp.csr_matrix(a)
            xd = rnp.array(x)
            lhs = ((alpha * A) @ xd).to_numpy()
            rhs = ((A @ xd) * alpha).to_numpy()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @settings(**_SETTINGS)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 999),
        rt=runtimes(),
    )
    def test_sub_of_self_is_structurally_zero(self, n, seed, rt):
        rng = np.random.default_rng(seed)
        a = sps.random(n, n, density=0.4, random_state=rng, format="csr")
        with runtime_scope(rt):
            A = sp.csr_matrix(a)
            Z = A - A
            assert Z.nnz == A.nnz  # union keeps structure
            np.testing.assert_allclose(Z.toarray(), np.zeros((n, n)), atol=1e-14)

    @settings(**_SETTINGS)
    @given(
        n=st.integers(2, 10),
        k=st.integers(2, 10),
        m=st.integers(2, 10),
        seed=st.integers(0, 999),
        rt=runtimes(),
    )
    def test_spgemm_matches_scipy(self, n, k, m, seed, rt):
        rng = np.random.default_rng(seed)
        a = sps.random(n, k, density=0.4, random_state=rng, format="csr")
        b = sps.random(k, m, density=0.4, random_state=rng, format="csr")
        with runtime_scope(rt):
            C = sp.csr_matrix(a) @ sp.csr_matrix(b)
            np.testing.assert_allclose(
                C.toarray(), (a @ b).toarray(), rtol=1e-10, atol=1e-12
            )

    @settings(**_SETTINGS)
    @given(
        n=st.integers(2, 14),
        seed=st.integers(0, 999),
        rt=runtimes(),
    )
    def test_matvec_transpose_adjoint(self, n, seed, rt):
        """<A x, y> == <x, A^T y> (the adjoint identity)."""
        rng = np.random.default_rng(seed)
        a = sps.random(n, n, density=0.4, random_state=rng, format="csr")
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        with runtime_scope(rt):
            A = sp.csr_matrix(a)
            xd, yd = rnp.array(x), rnp.array(y)
            lhs = float(rnp.dot(A @ xd, yd))
            rhs = float(rnp.dot(xd, yd @ A))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


_ROW_OPS = {
    "spmv": lambda A, x: A @ rnp.array(x),
    "spmm1": lambda A, x: A @ rnp.array(np.stack([x], axis=1)),
    "spmm3": lambda A, x: A @ rnp.array(np.stack([x, -x, x * x], axis=1)),
    "spmm8": lambda A, x: A @ rnp.array(x[:, None] * np.arange(1.0, 9.0)),
    "rowsums": lambda A, x: A.sum(axis=1),
}

# A power-law operand (row lengths 1..64 with a heavy tail): tiles of
# equal rows carry very unequal nonzero counts.
SKEW = power_law_csr(96, 64, seed=3)


class TestRuntimeInvariants:
    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(max_n=20), seed=st.integers(0, 99))
    def test_processor_count_does_not_change_results(self, mat, seed):
        """Distribution is semantically transparent -- bitwise.

        Every generated row reduction is a per-row segmented sum
        (``repro.distal.codegen.segment_sums``): a row's bits depend on
        that row's contributions alone, never on where its tile starts,
        so 1, 2 and 3 processors must agree exactly -- for SpMV, for
        SpMM at any width (each stacked column reduces like the lone
        SpMV) and for row sums, in CSR (the drawn matrix and a skewed
        power-law one) and block row by block row in BSR.  Any tolerance
        here would hide a tiling-dependent kernel.
        """
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(mat.shape[1])
        x_skew = rng.standard_normal(SKEW.shape[1])
        results = {}
        for procs in (1, 2, 3):
            runtime = Runtime(
                summit(nodes=1).scope(ProcessorKind.GPU, procs),
                RuntimeConfig.legate(),
            )
            with runtime_scope(runtime):
                operands = {
                    "csr": (sp.csr_matrix(mat), x),
                    "bsr": (
                        sp.bsr_matrix(mat, blocksize=tiling_blocksize(mat.shape)),
                        x,
                    ),
                    "skew": (sp.csr_matrix(SKEW), x_skew),
                }
                for fmt, (A, v) in operands.items():
                    for name, op in _ROW_OPS.items():
                        got = op(A, v).to_numpy()
                        want = results.setdefault((fmt, name), got)
                        assert np.array_equal(got, want), (fmt, name, procs)

    @settings(**_SETTINGS)
    @given(mat=scipy_matrices(max_n=16), rt=runtimes())
    def test_simulated_time_monotone(self, mat, rt):
        with runtime_scope(rt):
            A = sp.csr_matrix(mat)
            x = rnp.ones(mat.shape[1])
            t0 = rt.elapsed()
            A @ x
            t1 = rt.elapsed()
            assert t1 >= t0
            A @ x
            assert rt.elapsed() >= t1
