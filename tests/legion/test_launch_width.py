"""Launch width: ``Runtime.narrow`` and Legate's minimum-chunk rule.

* **differential** — every operation of the coverage inventory
  (``repro.core.coverage``), the CG building blocks and the dense
  explicit-tiling sites run on six GPUs over operands built at full
  width, once unnarrowed and once each under ``narrow(1)`` and
  ``narrow(4)``, validated.  Results are equal (bitwise, or within
  1e-12 for an operation that folds partials across shards), the event
  log checks clean, and no launch inside the scope is wider than it;
* **mutation** — an explicit-tiling site that still reads ``num_procs``
  is refused with a ``LaunchWidthError`` naming the store and both
  widths;
* **rule** — ``colors_for`` gives Fig. 10's paper-scale coarse grids
  every processor and ``gmg_small_tasks``' coarse grids one, with ceil
  semantics at ``MIN_CHUNK``.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.analysis.events import TaskEvent
from repro.apps.multigrid import (
    TwoLevelGMG, bilinear_prolongation, injection_restriction,
)
from repro.apps.poisson import poisson2d_scipy
from repro.constraints import AutoTask
from repro.core import coverage
from repro.core.base import spmatrix
from repro.core.linalg import LinearOperator, aslinearoperator
from repro.core.linalg.preconditioners import jacobi, ssor
from repro.harness.config import WEAK_SCALING_COLUMNS
from repro.harness.experiments import fig10_gmg
from repro.integrate import solve_ivp
from repro.legion import LaunchWidthError, Runtime, RuntimeConfig, Tiling
from repro.legion.runtime import runtime_scope
from repro.machine import MIN_CHUNK, ProcessorKind, laptop, summit
from repro.numeric import indexing
from repro.numeric.array import ndarray
from repro.numeric.reductions import Scalar

GPUS = 6
WIDTHS = (1, 4)
K = 7  # the Poisson grid: 49 rows, uneven tiles at 4 and 6 colors
N = K * K


def _host_matrix(seed: int) -> sps.csr_matrix:
    """A well-conditioned random N x N matrix (a nonzero diagonal)."""
    rng = np.random.default_rng(seed)
    rand = sps.random(N, N, density=0.12, random_state=rng, format="csr")
    return (rand + sps.eye(N) * 4.0).tocsr()


def _inputs() -> SimpleNamespace:
    """The operands, built at the runtime's full width."""
    rng = np.random.default_rng(7)
    H, G = _host_matrix(1), _host_matrix(2)
    return SimpleNamespace(
        H=H,
        A=sp.csr_matrix(H),
        B=sp.csr_matrix(G),
        S=sp.csr_matrix(poisson2d_scipy(K)),
        coo=sp.coo_matrix(H),
        csc=sp.csc_matrix(H),
        dia=sp.dia_matrix(poisson2d_scipy(K).todia()),
        bsr=sp.bsr_matrix(sps.bsr_matrix(_host_matrix(3)[:48, :48], blocksize=(2, 2))),
        lower=sp.csr_matrix(sps.tril(H).tocsr()),
        small=sp.csr_matrix(sps.random(5, 4, density=0.5, random_state=3)),
        tiny=sp.csr_matrix(sps.random(3, 6, density=0.5, random_state=4)),
        R=injection_restriction(K),
        P=bilinear_prolongation(K),
        x=rnp.asarray(rng.random(N)),
        y=rnp.asarray(rng.random(N)),
        x48=rnp.asarray(rng.random(48)),
        rc=rnp.asarray(rng.random((K - 1) // 2 * ((K - 1) // 2))),
        X=rnp.asarray(rng.random((N, 3))),
        C=rnp.asarray(rng.random((N, 3))),
        D=rnp.asarray(rng.random((N, 3))),
        dense=rnp.asarray(rng.random((N, N))),
    )


def _npz_roundtrip(A):
    buf = io.BytesIO()
    sp.save_npz(buf, A)
    buf.seek(0)
    return sp.load_npz(buf)


def _slice_assign(x, value):
    out = x.copy()
    out[2:40:3] = value
    return out


def _decay(S):
    return lambda t, v: S @ v * -1.0


# Operation -> what it computes from the inputs.  Every name of the
# coverage inventory is here (test_every_inventory_name_is_exercised);
# the CG building blocks and the dense explicit-tiling sites follow.
OPS = {
    # generated
    "csr_matvec": lambda I: I.A @ I.x,
    "csr_rmatvec": lambda I: I.A.T @ I.x,
    "csr_matmat": lambda I: I.A @ I.X,
    "csr_matmat_transpose": lambda I: I.A.T @ I.X,
    "csr_sddmm": lambda I: I.A.sddmm(I.C, I.D),
    "csr_sample": lambda I: I.A.sample(I.C, I.D),
    "csr_row_sums": lambda I: I.A.sum(axis=1),
    "csr_col_sums": lambda I: I.A.sum(axis=0),
    "csr_diagonal": lambda I: I.A.diagonal(),
    "dia_matvec": lambda I: I.dia @ I.x,
    "coo_matvec": lambda I: I.coo @ I.x,
    "bsr_matvec": lambda I: I.bsr @ I.x48,
    # ported: classes and constructors
    "csr_matrix": lambda I: sp.csr_matrix(I.H),
    "csc_matrix": lambda I: sp.csc_matrix(I.H),
    "coo_matrix": lambda I: sp.coo_matrix(I.H),
    "dia_matrix": lambda I: sp.dia_matrix(poisson2d_scipy(K).todia()),
    "bsr_matrix": lambda I: sp.bsr_matrix(sps.bsr_matrix(I.H[:48, :48], blocksize=(2, 2))),
    "csr_array": lambda I: sp.csr_array(I.H),
    "csc_array": lambda I: sp.csc_array(I.H),
    "coo_array": lambda I: sp.coo_array(I.H),
    "dia_array": lambda I: sp.dia_array(poisson2d_scipy(K).todia()),
    "bsr_array": lambda I: sp.bsr_array(sps.bsr_matrix(I.H[:48, :48], blocksize=(2, 2))),
    "eye": lambda I: sp.eye(N, k=1, format="csr"),
    "identity": lambda I: sp.identity(N, format="csr"),
    "diags": lambda I: sp.diags(
        [np.arange(N - 1.0), np.arange(N) + 2.0, np.ones(N - 1)],
        [-1, 0, 1], shape=(N, N), format="csr",
    ),
    "random": lambda I: sp.random(N, N, density=0.1, format="csr", random_state=5),
    "rand": lambda I: sp.rand(N, N, density=0.1, format="csr", random_state=6),
    "kron": lambda I: sp.kron(I.small, I.tiny, format="csr"),
    "vstack": lambda I: sp.vstack([I.A, I.B], format="csr"),
    "hstack": lambda I: sp.hstack([I.A, I.B], format="csr"),
    # conversions and structure
    "tocsr": lambda I: I.coo.tocsr(),
    "tocsc": lambda I: I.A.tocsc(),
    "tocoo": lambda I: I.A.tocoo(),
    "todia": lambda I: I.S.todia(),
    "tobsr": lambda I: I.A[:48].tobsr(),
    "asformat": lambda I: I.A.asformat("coo"),
    "toarray": lambda I: I.A.toarray(),
    "todense": lambda I: I.A.todense(),
    "transpose": lambda I: I.A.transpose(),
    "getnnz": lambda I: I.A.getnnz(),
    "copy": lambda I: I.A.copy(),
    "astype": lambda I: I.A.astype(np.float32),
    "conj": lambda I: I.A.conj(),
    "conjugate": lambda I: I.A.conjugate(),
    "diagonal": lambda I: I.coo.diagonal(),
    "sum": lambda I: I.A.sum(),
    "mean": lambda I: I.A.mean(),
    "issparse": lambda I: sp.issparse(I.A),
    "getrow": lambda I: I.A.getrow(11),
    # value-space algebra
    "multiply_scalar": lambda I: I.A * 2.5,
    "divide_scalar": lambda I: I.A / 3.0,
    "negate": lambda I: -I.A,
    "power": lambda I: I.A.power(2),
    "abs": lambda I: abs(-I.A),
    "sqrt": lambda I: I.A.sqrt(),
    # element-wise structural algebra
    "add": lambda I: I.A + I.B,
    "subtract": lambda I: I.A - I.B,
    "multiply": lambda I: I.A.multiply(I.B),
    "maximum": lambda I: I.A.maximum(I.B),
    "minimum": lambda I: I.A.minimum(I.B),
    "multiply_dense": lambda I: I.A.multiply(I.dense),
    # products
    "dot": lambda I: I.A.dot(I.x),
    "matvec": lambda I: I.A @ I.y,
    "rmatvec": lambda I: I.csc @ I.y,
    "matmat": lambda I: I.S @ I.X,
    "matmul_sparse": lambda I: I.A @ I.B,
    # linalg
    "linalg.cg": lambda I: sp.linalg.cg(I.S, I.x, rtol=0.0, maxiter=6)[0],
    "linalg.cgs": lambda I: sp.linalg.cgs(I.S, I.x, rtol=0.0, maxiter=4)[0],
    "linalg.bicg": lambda I: sp.linalg.bicg(I.A, I.x, rtol=0.0, maxiter=4)[0],
    "linalg.bicgstab": lambda I: sp.linalg.bicgstab(I.A, I.x, rtol=0.0, maxiter=4)[0],
    "linalg.gmres": lambda I: sp.linalg.gmres(I.A, I.x, rtol=0.0, restart=5, maxiter=2)[0],
    "linalg.eigsh": lambda I: sp.linalg.eigsh(I.S, k=1, maxiter=8, v0=I.x),
    "linalg.power_iteration": lambda I: sp.linalg.power_iteration(
        I.S, iters=6, x0=I.x
    )[0],
    "linalg.lobpcg_max": lambda I: sp.linalg.lobpcg_max(I.S, iters=4),
    "linalg.norm": lambda I: sp.linalg.norm(I.A),
    "linalg.onenormest": lambda I: sp.linalg.onenormest(I.A),
    "linalg.LinearOperator": lambda I: LinearOperator(
        I.A.shape, matvec=lambda v: I.A @ v
    ).matvec(I.x),
    "linalg.aslinearoperator": lambda I: aslinearoperator(I.A).matvec(I.x),
    "linalg.lsqr": lambda I: sp.linalg.lsqr(I.A, I.x, iter_lim=4)[0],
    "linalg.spsolve_triangular": lambda I: sp.linalg.spsolve_triangular(I.lower, I.x),
    "linalg.preconditioners.jacobi": lambda I: jacobi(I.S).matvec(I.x),
    "linalg.preconditioners.ssor": lambda I: ssor(I.S).matvec(I.x),
    # integration
    "integrate.solve_ivp_rk45": lambda I: solve_ivp(
        _decay(I.S), (0.0, 0.02), I.x, method="RK45", max_steps=4
    ).y,
    "integrate.solve_ivp_rk4": lambda I: solve_ivp(
        _decay(I.S), (0.0, 0.02), I.x, method="RK4", step=0.01
    ).y,
    "integrate.solve_ivp_gbs8": lambda I: solve_ivp(
        _decay(I.S), (0.0, 0.02), I.x, method="GBS8", step=0.01
    ).y,
    # extended surface
    "find": lambda I: sp.find(I.A),
    "count_nonzero": lambda I: sp.count_nonzero(I.A),
    "setdiag": lambda I: sp.setdiag(I.A, 1.5),
    "spdiags": lambda I: sp.spdiags(
        np.arange(3.0 * N).reshape(3, N), [-1, 0, 2], N, N, format="csr"
    ),
    "block_diag": lambda I: sp.block_diag([I.small, I.tiny], format="csr"),
    "save_npz": lambda I: _npz_roundtrip(I.A),
    "load_npz": lambda I: _npz_roundtrip(I.A.tocsc()),
    "linalg.expm_multiply": lambda I: sp.linalg.expm_multiply(I.S * -0.05, I.x),
    "column_slicing": lambda I: I.A[:, 5:31],
    "element_access": lambda I: I.A[13, 13],
    # hand-written
    "binary_union": lambda I: I.A + I.B * 2.0,
    "multiply_intersection": lambda I: I.B.multiply(I.A),
    "csr_spgemm": lambda I: I.S @ I.A,
    "csr_to_csc_sort": lambda I: I.B.tocsc(),
    "expand_row_indices": lambda I: I.B.tocoo(),
    "row_slicing": lambda I: I.A[7:40],
    "structural_filter": lambda I: sp.triu(I.A, k=1),
    "distributed_scan": lambda I: rnp.cumsum(I.x),
    # the CG building blocks (of the GMG coarse solve)
    "cg.A@x": lambda I: I.S @ I.x,
    "cg.R@r": lambda I: I.R @ I.x,
    "cg.P@e": lambda I: I.P @ I.rc,
    "cg.dot": lambda I: rnp.vdot(I.x, I.y),
    "cg.axpy": lambda I: I.y + I.x * 0.75,
    # dense explicit-tiling sites
    "slice_copy": lambda I: I.x[3:45:2],
    "slice_assign": lambda I: _slice_assign(I.x, I.y[0:13]),
    "slice_assign_scalar": lambda I: _slice_assign(I.x, 2.0),
}

# Operations whose result folds partials across shards (reductions into
# a region, scalar allreduces, solvers and integrators built on them):
# another width re-associates the sums, so they agree within 1e-12.
# Every other result is bitwise the unnarrowed one.
FOLDS = {
    "csr_rmatvec", "csr_matmat_transpose", "csr_col_sums", "sum", "mean",
    "rmatvec", "linalg.cg", "linalg.cgs", "linalg.bicg", "linalg.bicgstab",
    "linalg.gmres", "linalg.eigsh", "linalg.power_iteration",
    "linalg.lobpcg_max", "linalg.norm", "linalg.onenormest", "linalg.lsqr",
    "integrate.solve_ivp_rk45", "linalg.expm_multiply", "cg.dot",
    "distributed_scan",
}

# Operations that draw random numbers: repro.numeric.random seeds each
# shard by its color, so the draw depends on the width by design.  Their
# reference is the unnarrowed run on a scope of the narrowed width.
DRAWS = {"linalg.lobpcg_max"}


def _host(value):
    """A result as host data to compare."""
    if isinstance(value, spmatrix):
        return value.toarray()
    if isinstance(value, ndarray):
        return value.to_numpy()
    if isinstance(value, Scalar):
        return np.asarray(complex(value))
    if isinstance(value, (tuple, list)):
        return tuple(_host(v) for v in value)
    return np.asarray(value)


def _run(name: str, width, gpus: int = GPUS):
    """``OPS[name]`` on ``gpus`` GPUs, narrowed to ``width`` (None: not)."""
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, gpus),
        RuntimeConfig.legate(validate=True),
    )
    with runtime_scope(rt):
        inputs = _inputs()
        rt.barrier()
        first = len(rt.event_log.events)
        if width is None:
            out = OPS[name](inputs)
            rt.barrier()
        else:
            with rt.narrow(width):
                out = OPS[name](inputs)
                rt.barrier()
        widths = [
            ev.colors for ev in rt.event_log.events[first:]
            if isinstance(ev, TaskEvent)
        ]
        result = _host(out)
    return result, widths, check_log(rt.event_log)


def _equal(got, want, fold: bool) -> bool:
    if isinstance(want, tuple):
        return len(got) == len(want) and all(
            _equal(g, w, fold) for g, w in zip(got, want)
        )
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if fold:
        return bool(np.allclose(got, want, rtol=1e-12, atol=1e-12))
    return bool(np.array_equal(got, want))


def _differences(name: str):
    """Every way the narrowed runs of ``name`` depart from the
    unnarrowed one."""
    want, _, violations = _run(name, None)
    problems = [("unnarrowed", v) for v in violations]
    for width in WIDTHS:
        if name in DRAWS:
            want, _, violations = _run(name, None, gpus=width)
            problems += [(f"{width} GPUs", v) for v in violations]
        try:
            got, widths, violations = _run(name, width)
        except Exception as exc:  # a broken width may raise anywhere
            problems.append((width, repr(exc)))
            continue
        problems += [(width, v) for v in violations]
        if not _equal(got, want, name in FOLDS):
            problems.append((width, "result differs"))
        if widths and max(widths) > width:
            problems.append((width, f"a launch of {max(widths)} colors"))
    return problems


@pytest.mark.parametrize("name", sorted(OPS))
def test_narrowed_ops_match_the_unnarrowed_run(name):
    assert _differences(name) == []


def test_every_inventory_name_is_exercised():
    names = {row["name"] for row in coverage.inventory()}
    assert names <= set(OPS), sorted(names - set(OPS))


def test_the_ops_do_narrow():
    """The comparison is not vacuous: the unnarrowed run launches on
    every GPU, the narrowed one on the scope's width."""
    _, full, _ = _run("csr_matvec", None)
    _, narrow, _ = _run("csr_matvec", 4)
    assert max(full) == GPUS and max(narrow) == 4


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", ["slice_copy", "slice_assign"])
def test_an_explicit_tiling_that_reads_num_procs_is_refused(monkeypatch, name, width):
    """Mutant: the slice sites tile over every processor, as every such
    site did before launch_colors.  The launch refuses the partition
    before it runs, naming the store and both widths."""
    real = indexing.Tiling

    class Mutant:
        @staticmethod
        def create(region, colors):
            return real.create(region, GPUS)

        create_boundaries = staticmethod(real.create_boundaries)

    monkeypatch.setattr(indexing, "Tiling", Mutant)
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, GPUS),
        RuntimeConfig.legate(validate=True),
    )
    with runtime_scope(rt):
        x, y = rnp.ones(N), rnp.ones(13)
        rt.barrier()
        with pytest.raises(LaunchWidthError) as caught, rt.narrow(width):
            if name == "slice_copy":
                x[3:45:2]
            else:
                _slice_assign(x, y)
    error = caught.value
    assert (error.task, error.partition_colors, error.colors) == (name, GPUS, width)
    assert f"store {error.store!r} has {GPUS} colors, the launch {width}" in str(error)


def test_an_explicit_partition_of_another_width_launches_nothing():
    rt = _laptop_runtime()
    with runtime_scope(rt):
        x = rnp.ones(8)
        rt.barrier()
        launched = rt.profiler.tasks_launched
        task = AutoTask(rt, "touch", lambda ctx: None, colors=2)
        task.add_input("x", x.store)
        task.add_explicit_partition(x.store, Tiling.create(x.store.region, 3))
        with pytest.raises(LaunchWidthError, match="has 3 colors, the launch 2"):
            task.execute()
    assert rt.profiler.tasks_launched == launched


# ----------------------------------------------------------------------
# narrow() itself
# ----------------------------------------------------------------------
def _laptop_runtime() -> Runtime:
    return Runtime(laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())


def test_narrow_nests_and_restores_on_exceptions():
    rt = _laptop_runtime()
    assert rt.launch_colors == rt.num_procs == 2
    with rt.narrow(1):
        assert rt.launch_colors == 1
        with pytest.raises(RuntimeError):
            with rt.narrow(3):
                assert rt.launch_colors == 3
                raise RuntimeError("boom")
        assert rt.launch_colors == 1
    assert rt.launch_colors == 2
    with pytest.raises(ValueError):
        with rt.narrow(0):
            pass
    assert rt.launch_colors == 2


# ----------------------------------------------------------------------
# The minimum-chunk rule
# ----------------------------------------------------------------------
def _fig10_coarse(kind: ProcessorKind, procs: int, n_full: int):
    """The runtime and coarse volume of one Fig. 10 Legate point."""
    k = fig10_gmg._build_grid(n_full, procs)
    machine = summit(nodes=math.ceil(procs / (6 if kind is ProcessorKind.GPU else 2)))
    rt = Runtime(
        machine.scope(kind, procs),
        RuntimeConfig.legate(data_scale=n_full / (k * k)),
    )
    return rt, ((k - 1) // 2) ** 2


@pytest.mark.parametrize("column", WEAK_SCALING_COLUMNS)
def test_fig10_coarse_grids_earn_every_processor(column):
    sockets, gpus = column
    for kind, procs, n_full in (
        (ProcessorKind.GPU, gpus, gpus * fig10_gmg.PER_GPU_N),
        (ProcessorKind.CPU_SOCKET, sockets, sockets * fig10_gmg.PER_SOCKET_N),
    ):
        rt, coarse = _fig10_coarse(kind, procs, n_full)
        assert rt.colors_for(coarse) == procs


@pytest.mark.parametrize("k", range(187, 202, 2))
def test_gmg_small_tasks_coarse_grid_earns_one_gpu(k):
    rt = Runtime(summit(nodes=1).scope(ProcessorKind.GPU, 6), RuntimeConfig.legate())
    assert rt.colors_for(((k - 1) // 2) ** 2) == 1


@pytest.mark.parametrize(
    "kind, procs",
    [(ProcessorKind.GPU, 6), (ProcessorKind.CPU_SOCKET, 2)],
)
def test_colors_for_takes_the_ceiling(kind, procs):
    rt = Runtime(summit(nodes=1).scope(kind, procs), RuntimeConfig.legate())
    chunk = MIN_CHUNK[kind]
    assert rt.colors_for(0) == 1
    assert rt.colors_for(chunk) == 1
    assert rt.colors_for(chunk + 1) == 2
    assert rt.colors_for(100 * chunk) == procs
    scaled = Runtime(
        summit(nodes=1).scope(kind, procs),
        RuntimeConfig.legate(data_scale=4.0),
    )
    assert scaled.colors_for(chunk // 4 + 1) == 2


def test_the_coarse_solve_runs_narrowed():
    """The V-cycle's coarse CG runs at the width colors_for gives; the
    outer CG keeps every GPU."""
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 3),
        RuntimeConfig.legate(validate=True),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(15))
        gmg = TwoLevelGMG(A, 15, coarse_rtol=0.0, coarse_maxiter=3)
        x, _ = sp.linalg.cg(
            A, rnp.ones(225), rtol=0.0, maxiter=2, M=gmg.as_preconditioner()
        )
        rt.barrier()
        assert rt.launch_colors == 3
    participants = [
        ev.participants for ev in rt.event_log.events
        if getattr(ev, "kind", None) == "allreduce"
    ]
    # Per V-cycle: the coarse CG's ||b||, ||r0||, r0.z0 and three
    # iterations of p.q, r.z and ||r||; the outer CG reduces over 3.
    assert participants.count(1) > participants.count(3) > 0
    assert check_log(rt.event_log) == []
