"""Differential fuzzing: random op sequences vs stock SciPy/NumPy.

Generates random programs over a small vocabulary of sparse and dense
operations, executes them through both the distributed stack and stock
SciPy/NumPy, and asserts the results agree.  This is the strongest
drop-in-replacement check we have: any divergence in semantics between
the two stacks fails loudly with the generating seed.
"""

import numpy as np
import scipy.sparse as sps
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop

_SET = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Each op transforms the paired state (ours, theirs). States hold
# (matrix, vector) pairs with matching values.
MATRIX_OPS = ["transpose_csr", "scale", "add_self", "hadamard_self", "abs", "tril"]
VECTOR_OPS = ["matvec", "rmatvec", "axpy", "normalize", "elementwise"]


def _apply_matrix_op(op, A, ref):
    if op == "transpose_csr":
        return A.T.tocsr(), ref.T.tocsr()
    if op == "scale":
        return 1.5 * A, 1.5 * ref
    if op == "add_self":
        return A + 0.5 * A, (ref + 0.5 * ref).tocsr()
    if op == "hadamard_self":
        return A.multiply(A), ref.multiply(ref).tocsr()
    if op == "abs":
        return abs(A), abs(ref)
    if op == "tril":
        return sp.tril(A), sps.tril(ref, format="csr")
    raise AssertionError(op)


def _apply_vector_op(op, A, ref, x, xref):
    if op == "matvec" and A.shape[0] == A.shape[1]:
        return A @ x, ref @ xref
    if op == "rmatvec" and A.shape[0] == A.shape[1]:
        return x @ A, xref @ ref
    if op == "axpy":
        return x * 2.0 + x, xref * 2.0 + xref
    if op == "normalize":
        nrm = rnp.linalg.norm(x)
        denom = float(nrm)
        if denom == 0:
            return x, xref
        return x / nrm, xref / np.linalg.norm(xref)
    if op == "elementwise":
        return rnp.sqrt(abs(x) + 1.0), np.sqrt(np.abs(xref) + 1.0)
    return x, xref  # dimension-guard fallthrough


class TestDifferentialFuzz:
    @settings(**_SET)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 20),
        density=st.floats(0.05, 0.6),
        matrix_program=st.lists(st.sampled_from(MATRIX_OPS), max_size=4),
        vector_program=st.lists(st.sampled_from(VECTOR_OPS), max_size=4),
        procs=st.integers(1, 2),
    )
    def test_random_program_matches_scipy(
        self, seed, n, density, matrix_program, vector_program, procs
    ):
        rng = np.random.default_rng(seed)
        ref = sps.random(n, n, density=density, random_state=rng, format="csr")
        ref.sum_duplicates()
        xref = rng.standard_normal(n)

        runtime = Runtime(
            laptop().scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
        )
        with runtime_scope(runtime):
            A = sp.csr_matrix(ref)
            x = rnp.array(xref)
            for op in matrix_program:
                A, ref = _apply_matrix_op(op, A, ref)
                ref = ref.tocsr()
            np.testing.assert_allclose(
                A.toarray(), ref.toarray(), rtol=1e-9, atol=1e-11
            )
            for op in vector_program:
                x, xref = _apply_vector_op(op, A, ref, x, xref)
            np.testing.assert_allclose(
                x.to_numpy(), xref, rtol=1e-8, atol=1e-10
            )

    @settings(**_SET)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 16),
        m=st.integers(2, 16),
        fmt=st.sampled_from(["csr", "csc", "coo", "dia"]),
    )
    def test_conversion_chain_fuzz(self, seed, n, m, fmt):
        rng = np.random.default_rng(seed)
        ref = sps.random(n, m, density=0.3, random_state=rng, format="csr")
        runtime = Runtime(laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(runtime):
            A = sp.csr_matrix(ref).asformat(fmt)
            np.testing.assert_allclose(A.toarray(), ref.toarray(), rtol=1e-12)
            back = A.tocsr()
            np.testing.assert_allclose(back.toarray(), ref.toarray(), rtol=1e-12)

    @settings(**_SET)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 24),
    )
    def test_solver_fuzz_spd(self, seed, n):
        rng = np.random.default_rng(seed)
        a = sps.random(n, n, density=0.3, random_state=rng, format="csr")
        a = 0.5 * (a + a.T) + n * sps.eye(n)
        b = rng.standard_normal(n)
        runtime = Runtime(laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(runtime):
            x, info = sp.linalg.cg(sp.csr_matrix(a.tocsr()), rnp.array(b), rtol=1e-10)
            assert info == 0
            np.testing.assert_allclose(a @ x.to_numpy(), b, atol=1e-6)
