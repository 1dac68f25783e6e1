"""Every generated row reduction is one per-row segmented sum.

``repro.distal.codegen.segment_sums`` (``np.add.reduceat`` over the
non-empty rows' starts) replaced a prefix sum per tile whose row sums
were differences of two points on one running total: a row's error grew
with everything summed before it in the tile, and its bits moved with
the tile's offset.  Four properties pin the replacement down:

* **reproducer** — the matrix that showed the bug, verbatim;
* **accuracy** — against an *independent* exact row-by-row reference,
  each row within ``nnz_row * eps * (|A||x|)_row``, on graded-magnitude
  and cancelling rows and on the shapes that break segment bookkeeping;
* **bits** — a stacked SpMM column is the lone SpMV, and ELL/SELL/HYB
  equal CSR, on those same operands;
* **mutation** — with the prefix-sum reduction swapped back in, the
  checks above fail: they are tests that can fail.

The scatter kernels moved to ``ufunc.at``'s 1-D path in the same PR and
are held ``array_equal`` to a verbatim copy of the bodies they replaced.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.numeric as rnp
import repro.sparse as sp
from repro.distal.codegen import segment_sums
from repro.distal.formats import BSR, CSR, ELL, HYB, SELL
from repro.distal.registry import get_registry
from repro.geometry import Rect
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit
from tests.core.conftest import tiling_blocksize

EPS = np.finfo(np.float64).eps

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _runtime(procs: int) -> Runtime:
    return Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
    )


def _as_format(mat: sps.csr_matrix, fmt: str):
    return sp.csr_matrix(mat).asformat(fmt)


def _spmv(mat, x, procs, fmt="csr"):
    with runtime_scope(_runtime(procs)):
        return (_as_format(mat, fmt) @ rnp.array(x)).to_numpy()


def _bsr_spmv(mat, x, procs):
    with runtime_scope(_runtime(procs)):
        A = sp.bsr_matrix(mat, blocksize=tiling_blocksize(mat.shape))
        return (A @ rnp.array(x)).to_numpy()


def _spmm(mat, X, procs, fmt="csr"):
    with runtime_scope(_runtime(procs)):
        return (_as_format(mat, fmt) @ rnp.array(X)).to_numpy()


def _row_sums(mat, procs, fmt="csr"):
    with runtime_scope(_runtime(procs)):
        return _as_format(mat, fmt).sum(axis=1).to_numpy()


# ----------------------------------------------------------------------
# Reference: exact rational arithmetic, one row at a time.
# ----------------------------------------------------------------------
def _exact_rows(mat: sps.csr_matrix, x: np.ndarray):
    """(exact A @ x rounded once, (|A||x|), nnz) per row."""
    exact = np.zeros(mat.shape[0])
    absrow = np.zeros(mat.shape[0])
    for r in range(mat.shape[0]):
        lo, hi = mat.indptr[r], mat.indptr[r + 1]
        terms = [
            Fraction(float(a)) * Fraction(float(x[j]))
            for a, j in zip(mat.data[lo:hi], mat.indices[lo:hi])
        ]
        exact[r] = float(sum(terms, Fraction(0)))
        absrow[r] = float(sum((abs(t) for t in terms), Fraction(0)))
    return exact, absrow, np.diff(mat.indptr)


def check_rowwise_accuracy(mat, x, got, terms=None):
    """Each row within nnz_row * eps * (|A||x|)_row of the exact sum
    (``terms`` overrides nnz_row where a format sums stored zeros too)."""
    exact, absrow, nnz = _exact_rows(mat, x)
    bound = (nnz if terms is None else terms) * EPS * absrow
    err = np.abs(got - exact)
    assert (err <= bound).all(), (
        f"rows {np.flatnonzero(err > bound)}: err {err[err > bound]} "
        f"> bound {bound[err > bound]}"
    )


# ----------------------------------------------------------------------
# Operands that defeat a running sum.
# ----------------------------------------------------------------------
@st.composite
def graded_problems(draw):
    """A CSR matrix and a vector whose products span ~60 binades, with
    some rows built to cancel; empty rows at a drawn rate."""
    n = draw(st.integers(1, 18))
    m = draw(st.integers(1, 18))
    seed = draw(st.integers(0, 2**16))
    p_empty = draw(st.sampled_from([0.0, 0.3, 0.8]))
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, m))
    x = rng.standard_normal(m) * 2.0 ** rng.integers(-30, 30, m)
    for r in range(n):
        if rng.random() < p_empty:
            continue
        cols = np.flatnonzero(rng.random(m) < rng.uniform(0.1, 1.0))
        vals = rng.standard_normal(len(cols)) * 2.0 ** rng.integers(-30, 30, len(cols))
        if len(cols) >= 2 and rng.random() < 0.4:
            # Cancelling row: the last product undoes the first.
            vals[-1] = -vals[0] * x[cols[0]] / x[cols[-1]]
        dense[r, cols] = vals
    return sps.csr_matrix(dense), x


def _edge_cases():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(9) * 2.0 ** rng.integers(-20, 20, 9)
    body = sps.random(7, 9, density=0.5, random_state=3, format="csr")
    body.data *= 2.0 ** rng.integers(-25, 25, body.nnz)
    single = np.zeros((6, 9))
    single[2] = rng.standard_normal(9) * 1e12
    return {
        "all-empty": (sps.csr_matrix((7, 9)), x),
        "trailing-empty": (sps.vstack([body, sps.csr_matrix((5, 9))]).tocsr(), x),
        "leading-empty": (sps.vstack([sps.csr_matrix((5, 9)), body]).tocsr(), x),
        "single-dense-row": (sps.csr_matrix(single), x),
        "zero-rows": (sps.csr_matrix((0, 9)), x),
    }


EDGE_CASES = _edge_cases()


# ----------------------------------------------------------------------
# Reproducer (ROADMAP open item 1, verbatim)
# ----------------------------------------------------------------------
def check_reproducer(procs):
    x = np.ones(8)
    x[0] = 1e17
    with runtime_scope(_runtime(procs)):
        y = sp.csr_matrix(sps.identity(8, format="csr")) @ rnp.array(x)
        assert y.to_numpy().tolist() == [1e17, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_identity_times_graded_vector(procs):
    """Was [1e17, 0, 0, 0, 0, 0, 0, 0] on 1 GPU, [.., 1, 1, 1, 1] on 2."""
    check_reproducer(procs)


# ----------------------------------------------------------------------
# Accuracy
# ----------------------------------------------------------------------
def check_problem(mat, x, procs=(1, 3)):
    """SpMV, SpMM and row sums of one problem against the exact rows."""
    X = np.stack([x, -2.0 * x[::-1], x * x], axis=1)
    ones = np.ones(mat.shape[1])
    for p in procs:
        check_rowwise_accuracy(mat, x, _spmv(mat, x, p))
        Y = _spmm(mat, X, p)
        for j in range(X.shape[1]):
            check_rowwise_accuracy(mat, X[:, j], Y[:, j])
        check_rowwise_accuracy(mat, ones, _row_sums(mat, p))


@settings(**_SETTINGS)
@given(problem=graded_problems())
def test_graded_and_cancelling_rows_meet_the_per_row_bound(problem):
    check_problem(*problem)


@pytest.mark.parametrize("case", EDGE_CASES)
def test_segment_bookkeeping_edge_cases(case):
    check_problem(*EDGE_CASES[case], procs=(1, 2, 3))


@pytest.mark.parametrize("case", [c for c in EDGE_CASES if c != "zero-rows"])
@pytest.mark.parametrize("fmt", ["ell", "sell", "hyb"])
def test_edge_cases_in_rowlen_formats(case, fmt):
    mat, x = EDGE_CASES[case]
    for procs in (1, 2, 3):
        check_rowwise_accuracy(mat, x, _spmv(mat, x, procs, fmt))


def check_bsr_accuracy(mat, x, procs):
    """BSR sums whole R x C blocks: C terms per stored block in the row."""
    R, C = tiling_blocksize(mat.shape)
    blocks = sps.bsr_matrix(mat, blocksize=(R, C))
    terms = np.repeat(np.diff(blocks.indptr) * C, R)
    check_rowwise_accuracy(mat, x, _bsr_spmv(mat, x, procs), terms)


@settings(**{**_SETTINGS, "max_examples": 15})
@given(problem=graded_problems())
def test_bsr_block_rows_meet_the_per_row_bound(problem):
    for procs in (1, 3):
        check_bsr_accuracy(*problem, procs)


def test_helper_masks_empty_rows_on_a_leading_axis():
    contrib = np.arange(12.0).reshape(2, 6)
    starts = np.array([0, 0, 2, 2, 5, 6, 6])
    counts = np.array([0, 2, 0, 3, 1, 0, 0])
    expect = np.array([[0, 1, 0, 9, 5, 0, 0], [0, 13, 0, 27, 11, 0, 0]], float)
    np.testing.assert_array_equal(segment_sums(contrib, starts, counts), expect)
    np.testing.assert_array_equal(
        segment_sums(contrib[0], starts, counts), expect[0]
    )
    ints = segment_sums(np.ones(6, np.int32), starts, counts)
    assert ints.dtype == np.int32 and ints.tolist() == [0, 2, 0, 3, 1, 0, 0]


# ----------------------------------------------------------------------
# Bits
# ----------------------------------------------------------------------
def check_stacked_column_is_lone_spmv(mat, x, k, procs):
    rng = np.random.default_rng(k)
    X = x[:, None] * 2.0 ** rng.integers(-8, 8, (1, k)) + rng.standard_normal(
        (mat.shape[1], k)
    )
    Y = _spmm(mat, X, procs)
    for j in range(k):
        lone = _spmv(mat, np.ascontiguousarray(X[:, j]), procs)
        assert np.array_equal(Y[:, j], lone), f"column {j} of k={k}"


@settings(**{**_SETTINGS, "max_examples": 10})
@given(problem=graded_problems(), k=st.sampled_from([2, 4, 8]))
def test_stacked_column_is_bitwise_the_lone_spmv(problem, k):
    mat, x = problem
    for procs in (1, 2):
        check_stacked_column_is_lone_spmv(mat, x, k, procs)


@settings(**{**_SETTINGS, "max_examples": 15})
@given(problem=graded_problems())
def test_rowlen_formats_replay_csr_bitwise(problem):
    """The autoformat hook swaps these in for CSR mid-program."""
    mat, x = problem
    for procs in (1, 2):
        ref = _spmv(mat, x, procs)
        for fmt in ("ell", "sell", "hyb"):
            assert np.array_equal(_spmv(mat, x, procs, fmt), ref), fmt


# ----------------------------------------------------------------------
# Mutation: the deleted reduction, swapped back in, must be caught.
# ----------------------------------------------------------------------
def prefix_sum_row_sums(contrib, starts, counts):
    """What every gather kernel did before: one running sum over the
    tile, a row sum as the difference of two points on it."""
    csum = np.empty(
        contrib.shape[:-1] + (contrib.shape[-1] + 1,), dtype=contrib.dtype
    )
    csum[..., 0] = 0
    np.cumsum(contrib, axis=-1, out=csum[..., 1:])
    return csum[..., starts + counts] - csum[..., starts]


GATHER_KERNELS = [
    ("y(i)=A(i,j)*x(j)", CSR),
    ("Y(i,k)=A(i,j)*X(j,k)", CSR),
    ("y(i)=A(i,j)", CSR),
    ("y(i)=A(i,j)*x(j)", BSR),
    ("y(i)=A(i,j)*x(j)", ELL),
    ("y(i)=A(i,j)*x(j)", SELL),
    ("y(i)=A(i,j)*x(j)", HYB),
]


@pytest.fixture
def prefix_sum_kernels(monkeypatch):
    """Rebind the injected helper in every generated gather kernel."""
    for statement, fmt in GATHER_KERNELS:
        spec = get_registry().get(statement, fmt, ProcessorKind.GPU)
        assert spec.kernel.__globals__["segment_sums"] is segment_sums
        monkeypatch.setitem(
            spec.kernel.__globals__, "segment_sums", prefix_sum_row_sums
        )


def test_all_seven_gather_kernels_share_the_helper():
    for statement, fmt in GATHER_KERNELS:
        spec = get_registry().get(statement, fmt, ProcessorKind.GPU)
        assert spec.source.count("segment_sums(") == 1, spec.name
        assert "csum" not in spec.source, spec.name


def test_mutant_fails_the_reproducer(prefix_sum_kernels):
    for procs in (1, 2, 3):
        with pytest.raises(AssertionError):
            check_reproducer(procs)


def test_mutant_fails_the_accuracy_bound(prefix_sum_kernels):
    mat, x = EDGE_CASES["trailing-empty"]
    with pytest.raises(AssertionError):
        check_rowwise_accuracy(mat, x, _spmv(mat, x, 1))
    with pytest.raises(AssertionError):
        check_rowwise_accuracy(
            mat, np.ones(mat.shape[1]), _row_sums(mat, 1)
        )
    for fmt in ("ell", "sell", "hyb"):
        with pytest.raises(AssertionError):
            check_rowwise_accuracy(mat, x, _spmv(mat, x, 1, fmt))
    with pytest.raises(AssertionError):
        check_bsr_accuracy(mat, x, 1)


def test_mutant_bits_move_with_the_tiling(prefix_sum_kernels):
    """Under the prefix sum, "bitwise equal" only ever held between runs
    that shared a tiling (tests/core/test_properties.py holds the real
    kernels to procs=1 == procs=N)."""
    mat, x = EDGE_CASES["trailing-empty"]
    X = np.stack([x, x * x], axis=1)
    assert not np.array_equal(_spmv(mat, x, 1), _spmv(mat, x, 3))
    assert not np.array_equal(_spmm(mat, X, 1), _spmm(mat, X, 3))
    assert not np.array_equal(_row_sums(mat, 1), _row_sums(mat, 3))


# ----------------------------------------------------------------------
# Scatter kernels: 1-D ufunc.at, same bits as the 2-D bodies they replaced
# ----------------------------------------------------------------------
def old_spmm_transpose(ctx):
    """``Y(j,k) = A(i,j) * X(i,k)`` as generated before, verbatim."""
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]  # noqa: E702
    vals = ctx.arrays["vals"]; X = ctx.arrays["X"]; Y = ctx.arrays["Y"]  # noqa: E702
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])  # noqa: E702
    if jhi <= jlo:
        return
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    contrib = vals[jlo:jhi, None] * X[rows, :]
    np.add.at(Y, crd[jlo:jhi], contrib)


def old_sddmm(ctx):
    """``R(i,j) = B(i,j) * C(i,k) * D(j,k)`` as generated before, verbatim."""
    pos = ctx.arrays["pos"]; crd = ctx.arrays["crd"]  # noqa: E702
    vals = ctx.arrays["vals"]; C = ctx.arrays["C"]; D = ctx.arrays["D"]  # noqa: E702
    out = ctx.arrays["out_vals"]
    pr = ctx.rects["pos"]
    rlo, rhi = pr.lo[0], pr.hi[0]
    if rhi <= rlo:
        return
    lo = pos[rlo:rhi, 0]
    hi = pos[rlo:rhi, 1]
    jlo = int(lo[0]); jhi = int(hi[-1])  # noqa: E702
    if jhi <= jlo:
        return
    rows = np.repeat(np.arange(rlo, rhi), hi - lo)
    cols = crd[jlo:jhi]
    out[jlo:jhi] = vals[jlo:jhi] * np.einsum(
        "nk,nk->n", C[rows, :], D[cols, :]
    )


def _row_split_contexts(mat, arrays, cuts):
    """One shard context per row tile, over shared global arrays."""
    pos = np.stack([mat.indptr[:-1], mat.indptr[1:]], axis=1).astype(np.int64)
    base = dict(
        pos=pos, crd=mat.indices.astype(np.int64), vals=mat.data, **arrays
    )
    bounds = [0, *cuts, mat.shape[0]]
    return [
        SimpleNamespace(arrays=base, rects={"pos": Rect((lo, 0), (hi, 2))})
        for lo, hi in zip(bounds, bounds[1:])
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
@pytest.mark.parametrize("k", [1, 3, 32])
@pytest.mark.parametrize("seed", range(4))
def test_scatter_kernels_keep_their_bits(seed, k, dtype):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    # Few columns: every output row collects many colliding additions.
    mat = sps.random(n, m, density=0.5, random_state=seed, format="csr")
    mat.data = (mat.data * 2.0 ** rng.integers(-20, 20, mat.nnz)).astype(dtype)
    cuts = sorted(rng.integers(0, n + 1, 2).tolist())
    new_spmmT = get_registry().get(
        "Y(j,k)=A(i,j)*X(i,k)", CSR, ProcessorKind.GPU
    ).kernel
    new_sddmm = get_registry().get(
        "R(i,j)=B(i,j)*C(i,k)*D(j,k)", CSR, ProcessorKind.GPU
    ).kernel
    X = rng.standard_normal((n, k)).astype(dtype)
    D = rng.standard_normal((m, k)).astype(dtype)
    results = []
    for spmmT, sddmm in ((old_spmm_transpose, old_sddmm), (new_spmmT, new_sddmm)):
        Y = np.zeros((m, k), dtype)
        out = np.zeros(mat.nnz, dtype)
        for ctx in _row_split_contexts(
            mat, dict(X=X, Y=Y, C=X, D=D, out_vals=out), cuts
        ):
            spmmT(ctx)
            sddmm(ctx)
        results.append((Y, out))
    assert results[0][0].any() or mat.nnz == 0
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
