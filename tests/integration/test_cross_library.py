"""Cross-library composition: the paper's central claim, end-to-end.

Legate Sparse and cuNumeric (here: repro.core and repro.numeric) are
implemented against the constraint layer only; these tests observe the
resulting behaviour — partitions created by one library being consumed
by the other with no data movement, including non-default partitions.
"""

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig, Tiling
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop
from repro.numeric.lazy import evaluate, lazy


@pytest.fixture
def rt2():
    machine = laptop()
    runtime = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(runtime):
        yield runtime


def banded_csr(n, band=1):
    diags = [np.full(n - abs(k), 1.0) for k in range(-band, band + 1)]
    return sps.diags(diags, list(range(-band, band + 1))).tocsr()


class TestPartitionReuseAcrossLibraries:
    def test_sparse_output_partition_reused_by_dense(self, rt2):
        """y = A @ x writes y with pos's tiling; norm/divide reuse it."""
        A = sp.csr_matrix(banded_csr(64))
        x = rnp.ones(64)
        y = A @ x
        pos_boundaries = Tiling.create(A.pos.region, 2).boundaries
        assert y.store.key_partition.boundaries == pos_boundaries
        snap = rt2.profiler.snapshot()
        y / rnp.linalg.norm(y)  # dense ops on the sparse library's output
        assert rt2.profiler.since(snap).total_copy_bytes() == 0

    def test_custom_partition_propagates(self, rt2):
        """A hand-set uneven key partition flows through SpMV into the
        dense library with no repartitioning."""
        A = sp.csr_matrix(banded_csr(60))
        custom = Tiling(A.pos.region, (0, 45, 60))  # uneven on purpose
        A.pos.set_key_partition(custom)
        x = rnp.ones(60)
        y = A @ x
        assert y.store.key_partition.boundaries == (0, 45, 60)
        # The dense library keeps computing on the uneven partition.
        z = y * 2.0
        assert z.store.key_partition.boundaries == (0, 45, 60)

    def test_dense_array_backs_sparse_values(self, rt2):
        """§3: users can operate on the arrays that back a matrix."""
        A = sp.csr_matrix(banded_csr(32))
        vals = A.data  # a repro.numeric array sharing the vals region
        doubled = A._with_values(vals * 2.0)
        np.testing.assert_allclose(
            doubled.toarray(), 2 * banded_csr(32).toarray()
        )

    def test_matrix_from_numeric_arrays(self, rt2):
        """Sparse matrices constructed out of dense-library arrays."""
        from repro.constraints import Store

        ref = banded_csr(16)
        indptr = ref.indptr.astype(np.int64)
        pos = Store.create(
            (16, 2), np.int64,
            data=np.stack([indptr[:-1], indptr[1:]], axis=1), runtime=rt2,
        )
        crd_arr = rnp.array(ref.indices.astype(np.int64))
        vals_arr = rnp.array(ref.data)
        from repro.core.csr import csr_matrix

        A = csr_matrix._from_stores(pos, crd_arr.store, vals_arr.store, (16, 16))
        np.testing.assert_allclose(A.toarray(), ref.toarray())


class TestComposedPipelines:
    def test_fusion_inside_solver_loop(self, rt2):
        """Hand-fused CG updates give the same answer as the stock CG."""
        ref = (banded_csr(48) + 4 * sps.eye(48)).tocsr()
        A = sp.csr_matrix(ref)
        b = rnp.ones(48)
        x_ref, info = sp.linalg.cg(A, b, rtol=1e-10)
        assert info == 0

        # A CG with fused axpy updates.
        x = rnp.zeros(48)
        r = b - A @ x
        p = r.copy()
        rz = rnp.vdot(r, r)
        for _ in range(200):
            if float(rnp.linalg.norm(r)) <= 1e-10:
                break
            q = A @ p
            alpha = rz / rnp.vdot(p, q)
            x = evaluate(lazy(x) + lazy(p) * alpha)
            r = evaluate(lazy(r) - lazy(q) * alpha)
            rz_next = rnp.vdot(r, r)
            p = evaluate(lazy(r) + lazy(p) * (rz_next / rz))
            rz = rz_next
        np.testing.assert_allclose(x.to_numpy(), x_ref.to_numpy(), atol=1e-8)

    def test_traced_solver_iteration(self, rt2):
        """The runtime replays a whole CG iteration (sparse + dense tasks)."""
        ref = (banded_csr(40) + 4 * sps.eye(40)).tocsr()
        A = sp.csr_matrix(ref)
        b = rnp.ones(40)
        x = rnp.zeros(40)
        r = b - A @ x
        p = r.copy()
        rz = rnp.vdot(r, r)
        for _ in range(5):
            q = A @ p
            alpha = rz / rnp.vdot(p, q)
            x += p * alpha
            r -= q * alpha
            rz_next = rnp.vdot(r, r)
            p = r + p * (rz_next / rz)
            rz = rz_next
        rt2.barrier()
        assert rt2.profiler.launches_replayed >= 3
        resid = np.linalg.norm(ref @ x.to_numpy() - 1.0)
        assert resid < np.linalg.norm(np.ones(40))  # it is converging

    def test_scan_feeds_sparse_assembly(self, rt2):
        """Distributed scan output used as a pos array (two-pass style)."""
        counts = rnp.array(np.array([2, 0, 1, 3], dtype=np.int64))
        from repro.core.convert import _pos_from_counts

        pos_store, nnz = _pos_from_counts(counts)
        assert nnz == 6
        np.testing.assert_array_equal(
            pos_store.data, [[0, 2], [2, 2], [2, 3], [3, 6]]
        )

    def test_integrator_over_solver_output(self, rt2):
        """Chain: CG solve -> use the solution as an ODE initial state."""
        ref = (banded_csr(24) + 24 * sps.eye(24)).tocsr()
        A = sp.csr_matrix(ref)
        x0, info = sp.linalg.cg(A, rnp.ones(24), rtol=1e-10)
        assert info == 0
        from repro.integrate import solve_ivp

        res = solve_ivp(
            lambda t, y: (A @ y) * -0.01, (0.0, 1.0), x0, method="RK4", step=0.25
        )
        assert res.success
        assert float(rnp.linalg.norm(res.y)) < float(rnp.linalg.norm(x0))


class TestDeterminism:
    def test_results_identical_across_processor_counts(self, rt2):
        """The same Poisson solve on 1, 2 and 4 processors agrees to
        solver tolerance.  The solutions are not bitwise equal: a dot
        product's fold order follows the tiling (ROADMAP item 24)."""
        from repro.apps.poisson import poisson2d_scipy
        from repro.machine import summit

        k = 17
        ref = poisson2d_scipy(k)
        solutions = []
        for procs in (1, 2, 4):
            machine = summit(nodes=1)
            runtime = Runtime(
                machine.scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
            )
            with runtime_scope(runtime):
                A = sp.csr_matrix(ref)
                x, info = sp.linalg.cg(A, rnp.ones(k * k), rtol=1e-10, maxiter=2000)
                assert info == 0
                solutions.append(x.to_numpy())
        for got in solutions[1:]:
            np.testing.assert_allclose(got, solutions[0], rtol=1e-7, atol=1e-9)
