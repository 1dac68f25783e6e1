"""Tests for the DISTAL mini-compiler: IR, codegen, generated kernels."""

import numpy as np
import pytest
import scipy.sparse as sps

from repro.constraints import Store
from repro.distal import codegen, get_registry
from repro.distal.formats import COO, CSR, DIA
from repro.distal.ir import Assignment, IndexVar, Tensor
from repro.distal.library import STATEMENTS
from repro.distal.registry import launch
from repro.legion import Runtime, RuntimeConfig, Tiling
from repro.legion.partition import ExplicitPartition
from repro.geometry import Rect
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture
def rt():
    machine = laptop()
    runtime = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(runtime):
        yield runtime


def make_csr_stores(rt, mat: sps.csr_matrix, dtype=np.float64):
    mat = mat.tocsr()
    mat.sum_duplicates()
    n = mat.shape[0]
    indptr = mat.indptr.astype(np.int64)
    pos_data = np.stack([indptr[:-1], indptr[1:]], axis=1)
    pos = Store.create((n, 2), np.int64, data=pos_data, runtime=rt, name="pos")
    crd = Store.create(
        (mat.nnz,), np.int64, data=mat.indices.astype(np.int64), runtime=rt
    )
    vals = Store.create((mat.nnz,), dtype, data=mat.data.astype(dtype), runtime=rt)
    return pos, crd, vals


class TestIR:
    def test_key_canonicalization(self):
        i, j = IndexVar("i"), IndexVar("j")
        y, A, x = Tensor("y", 1), Tensor("A", 2), Tensor("x", 1)
        stmt = y[i] << A[i, j] * x[j]
        assert stmt.key() == "y(i)=A(i,j)*x(j)"

    def test_reduction_vars(self):
        i, j, k = IndexVar("i"), IndexVar("j"), IndexVar("k")
        Y, A, X = Tensor("Y", 2), Tensor("A", 2), Tensor("X", 2)
        stmt = Y[i, k] << A[i, j] * X[j, k]
        assert stmt.reduction_vars == [j]

    def test_order_mismatch_rejected(self):
        A = Tensor("A", 2)
        i = IndexVar("i")
        with pytest.raises(ValueError):
            A[i]

    def test_triple_product(self):
        i, j, k = IndexVar("i"), IndexVar("j"), IndexVar("k")
        R, B, C, D = (Tensor(n, 2) for n in "RBCD")
        stmt = R[i, j] << B[i, j] * C[i, k] * D[j, k]
        assert stmt.key() == "R(i,j)=B(i,j)*C(i,k)*D(j,k)"

    def test_library_covers_paper_statements(self):
        assert "y(i)=A(i,j)*x(j)" in STATEMENTS
        assert "R(i,j)=B(i,j)*C(i,k)*D(j,k)" in STATEMENTS


class TestCodegen:
    def test_source_is_retained(self):
        spec = get_registry().get(
            "y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU
        )
        assert "def kernel" in spec.source
        assert "segment_sums(contrib" in spec.source

    def test_unsupported_statement_raises(self):
        i = IndexVar("i")
        y, x = Tensor("y", 1), Tensor("x", 1)
        stmt = y[i] << x[i] * x[i]
        with pytest.raises(codegen.UnsupportedStatement):
            codegen.generate(stmt, CSR)

    def test_registry_caches(self):
        reg = get_registry()
        a = reg.get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)
        b = reg.get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)
        assert a is b

    def test_variants_per_processor_kind(self):
        reg = get_registry()
        a = reg.get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)
        b = reg.get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.CPU_SOCKET)
        assert a is not b


def random_csr(n, m, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    mat = sps.random(n, m, density=density, random_state=rng, format="csr")
    mat.sum_duplicates()
    return mat


class TestGeneratedKernels:
    def test_csr_spmv_matches_scipy(self, rt):
        mat = random_csr(50, 40, seed=1)
        pos, crd, vals = make_csr_stores(rt, mat)
        x = Store.create((40,), np.float64, data=np.random.default_rng(2).random(40), runtime=rt)
        y = Store.create((50,), np.float64, runtime=rt)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "crd": crd, "vals": vals, "x": x})
        np.testing.assert_allclose(y.data, mat @ x.data, rtol=1e-12)

    def test_csr_spmv_transpose_matches_scipy(self, rt):
        mat = random_csr(30, 45, seed=3)
        pos, crd, vals = make_csr_stores(rt, mat)
        x = Store.create((30,), np.float64, data=np.random.default_rng(4).random(30), runtime=rt)
        y = Store.create((45,), np.float64, runtime=rt)
        rt.fill(y.region, 0.0)
        spec = get_registry().get("y(j)=A(i,j)*x(i)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "crd": crd, "vals": vals, "x": x})
        np.testing.assert_allclose(y.data, mat.T @ x.data, rtol=1e-12)

    def test_csr_spmm_matches_scipy(self, rt):
        mat = random_csr(25, 30, seed=5)
        pos, crd, vals = make_csr_stores(rt, mat)
        Xd = np.random.default_rng(6).random((30, 4))
        X = Store.create((30, 4), np.float64, data=Xd, runtime=rt)
        Y = Store.create((25, 4), np.float64, runtime=rt)
        spec = get_registry().get("Y(i,k)=A(i,j)*X(j,k)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"Y": Y, "pos": pos, "crd": crd, "vals": vals, "X": X})
        np.testing.assert_allclose(Y.data, mat @ Xd, rtol=1e-12)

    def test_csr_spmm_transpose_matches_scipy(self, rt):
        mat = random_csr(25, 30, seed=7)
        pos, crd, vals = make_csr_stores(rt, mat)
        Xd = np.random.default_rng(8).random((25, 3))
        X = Store.create((25, 3), np.float64, data=Xd, runtime=rt)
        Y = Store.create((30, 3), np.float64, runtime=rt)
        rt.fill(Y.region, 0.0)
        spec = get_registry().get("Y(j,k)=A(i,j)*X(i,k)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"Y": Y, "pos": pos, "crd": crd, "vals": vals, "X": X})
        np.testing.assert_allclose(Y.data, mat.T @ Xd, rtol=1e-12)

    def test_csr_sddmm_matches_reference(self, rt):
        mat = random_csr(20, 22, seed=9)
        pos, crd, vals = make_csr_stores(rt, mat)
        rng = np.random.default_rng(10)
        Cd, Dd = rng.random((20, 5)), rng.random((22, 5))
        C = Store.create((20, 5), np.float64, data=Cd, runtime=rt)
        D = Store.create((22, 5), np.float64, data=Dd, runtime=rt)
        out = Store.create((mat.nnz,), np.float64, runtime=rt)
        spec = get_registry().get(
            "R(i,j)=B(i,j)*C(i,k)*D(j,k)", CSR, ProcessorKind.GPU
        )
        launch(
            spec,
            rt,
            {"out_vals": out, "pos": pos, "crd": crd, "vals": vals, "C": C, "D": D},
        )
        expected = mat.multiply(Cd @ Dd.T).tocsr()
        expected.sum_duplicates()
        ref = mat.copy()
        ref.data = out.data
        np.testing.assert_allclose(ref.toarray(), expected.toarray(), rtol=1e-12)

    def test_csr_row_sums(self, rt):
        mat = random_csr(40, 30, seed=11)
        pos, crd, vals = make_csr_stores(rt, mat)
        y = Store.create((40,), np.float64, runtime=rt)
        spec = get_registry().get("y(i)=A(i,j)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "vals": vals})
        np.testing.assert_allclose(y.data, np.asarray(mat.sum(axis=1)).ravel(), rtol=1e-12)

    def test_csr_col_sums(self, rt):
        mat = random_csr(40, 30, seed=12)
        pos, crd, vals = make_csr_stores(rt, mat)
        y = Store.create((30,), np.float64, runtime=rt)
        rt.fill(y.region, 0.0)
        spec = get_registry().get("y(j)=A(i,j)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "crd": crd, "vals": vals})
        np.testing.assert_allclose(y.data, np.asarray(mat.sum(axis=0)).ravel(), rtol=1e-12)

    def test_csr_diagonal(self, rt):
        mat = random_csr(30, 30, seed=13)
        pos, crd, vals = make_csr_stores(rt, mat)
        y = Store.create((30,), np.float64, runtime=rt)
        spec = get_registry().get("y(i)=A(i,i)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "crd": crd, "vals": vals})
        np.testing.assert_allclose(y.data, mat.diagonal(), rtol=1e-12)

    def test_coo_spmv(self, rt):
        mat = random_csr(35, 28, seed=14).tocoo()
        row = Store.create((mat.nnz,), np.int64, data=mat.row.astype(np.int64), runtime=rt)
        col = Store.create((mat.nnz,), np.int64, data=mat.col.astype(np.int64), runtime=rt)
        vals = Store.create((mat.nnz,), np.float64, data=mat.data, runtime=rt)
        xd = np.random.default_rng(15).random(28)
        x = Store.create((28,), np.float64, data=xd, runtime=rt)
        y = Store.create((35,), np.float64, runtime=rt)
        rt.fill(y.region, 0.0)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", COO, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "row": row, "col": col, "vals": vals, "x": x})
        np.testing.assert_allclose(y.data, mat @ xd, rtol=1e-12)

    def test_dia_spmv(self, rt):
        n = 32
        diags = np.array([-2, 0, 3])
        rng = np.random.default_rng(16)
        data = rng.random((len(diags), n))
        mat = sps.dia_matrix((data, diags), shape=(n, n))
        # Our DIA layout stores data transposed: (n, ndiags), entry
        # data_t[i, d] multiplies x[i + offsets[d]].
        data_t = np.zeros((n, len(diags)))
        for d, off in enumerate(diags):
            for i in range(n):
                j = i + off
                if 0 <= j < n:
                    data_t[i, d] = data[d, j]
        data_s = Store.create((n, len(diags)), np.float64, data=data_t, runtime=rt)
        offs = Store.create((len(diags),), np.int64, data=diags.astype(np.int64), runtime=rt)
        xd = rng.random(n)
        x = Store.create((n,), np.float64, data=xd, runtime=rt)
        y = Store.create((n,), np.float64, runtime=rt)
        # Explicit shifted-tile partition of x.
        tiling = Tiling.create(y.region, rt.num_procs)
        lo_off, hi_off = int(diags.min()), int(diags.max())
        rects = []
        for c in range(tiling.color_count):
            r = tiling.rect(c)
            rects.append(
                Rect(
                    (max(0, r.lo[0] + lo_off),),
                    (min(n, r.hi[0] + hi_off),),
                )
            )
        xpart = ExplicitPartition(x.region, rects)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", DIA, ProcessorKind.GPU)
        launch(
            spec,
            rt,
            {"y": y, "data": data_s, "offsets": offs, "x": x},
            explicit_partitions={"x": xpart},
        )
        np.testing.assert_allclose(y.data, mat @ xd, rtol=1e-12)

    def test_complex_spmv(self, rt):
        mat = random_csr(20, 20, seed=17)
        cvals = mat.data.astype(np.complex128) * (1 + 2j)
        cmat = sps.csr_matrix((cvals, mat.indices, mat.indptr), shape=mat.shape)
        pos, crd, vals = make_csr_stores(rt, cmat, dtype=np.complex128)
        xd = np.random.default_rng(18).random(20) + 1j
        x = Store.create((20,), np.complex128, data=xd, runtime=rt)
        y = Store.create((20,), np.complex128, runtime=rt)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)
        launch(spec, rt, {"y": y, "pos": pos, "crd": crd, "vals": vals, "x": x})
        np.testing.assert_allclose(y.data, cmat @ xd, rtol=1e-12)

    def test_reshape_penalty_increases_cost(self, rt):
        mat = random_csr(64, 64, seed=19)
        pos, crd, vals = make_csr_stores(rt, mat)
        spec = get_registry().get("y(i)=A(i,j)*x(j)", CSR, ProcessorKind.GPU)

        class FakeCtx:
            arrays = {"vals": vals.data, "crd": crd.data}
            rects = {
                "crd": Rect((0,), (mat.nnz,)),
                "pos": Rect((0, 0), (64, 2)),
            }

            class config:
                local_reshape_penalty = True

        with_penalty = spec.cost(FakeCtx)[1]
        FakeCtx.config.local_reshape_penalty = False
        without = spec.cost(FakeCtx)[1]
        assert with_penalty > without


class TestCompileCache:
    """exec-compilation is memoized by (name, source) signature."""

    def _nest_plan(self):
        from types import SimpleNamespace

        from repro.analysis import depend
        from repro.legion import Pointwise, Privilege, Requirement

        def req(name, uid, priv):
            reg = SimpleNamespace(uid=uid, name="", data=np.zeros(4))
            return Requirement(name, reg, None, priv)

        mul = SimpleNamespace(
            name="multiply",
            reduction=None,
            pointwise=Pointwise(
                ("multiply",),
                expr=(("load", "a"), ("scalar", "c"), ("bin", "multiply")),
                out="out",
            ),
            requirements=[
                req("out", 11, Privilege.WRITE_DISCARD),
                req("a", 10, Privilege.READ),
            ],
        )
        add = SimpleNamespace(
            name="add",
            reduction=None,
            pointwise=Pointwise(
                ("add",),
                expr=(("load", "a"), ("load", "b"), ("bin", "add")),
                out="out",
            ),
            requirements=[
                req("out", 12, Privilege.WRITE_DISCARD),
                req("a", 11, Privilege.READ),
                req("b", 10, Privilege.READ),
            ],
        )
        return depend.build_nest_plan([mul, add], elide_uids=frozenset({11}))

    def test_generate_nest_hits_cache_on_repeat(self):
        codegen.clear_compile_cache()
        plan = self._nest_plan()
        first = codegen.generate_nest(plan)
        stats = codegen.compile_cache_stats()
        assert stats == {"hits": 0, "misses": 1}
        second = codegen.generate_nest(plan)
        stats = codegen.compile_cache_stats()
        assert stats == {"hits": 1, "misses": 1}
        assert first.source == second.source
        assert first.name == second.name

    def test_different_sources_do_not_collide(self):
        codegen.clear_compile_cache()
        plan = self._nest_plan()
        codegen.generate_nest(plan)
        other = self._nest_plan()
        # Same shape, same source -> hit even from a distinct plan object.
        codegen.generate_nest(other)
        assert codegen.compile_cache_stats()["hits"] == 1

    def test_generate_statement_kernels_memoized(self):
        from repro.distal.ir import IndexVar, Tensor

        codegen.clear_compile_cache()
        i, j = IndexVar("i"), IndexVar("j")
        y, A, x = Tensor("y", 1), Tensor("A", 2), Tensor("x", 1)
        stmt = y[i] << A[i, j] * x[j]
        codegen.generate(stmt, CSR, proc_kind=ProcessorKind.GPU)
        before = codegen.compile_cache_stats()
        codegen.generate(stmt, CSR, proc_kind=ProcessorKind.GPU)
        after = codegen.compile_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
