"""Image key partitions: a CSR's value arrays keep its row cuts.

A store written through an image by range of a ``pos`` tiling whose
rects tile the store the way a tiling does keeps that image as its key
partition (``AutoTask.execute``); a new CSR keys its ``crd``/``vals``
by the image of an even tiling of ``pos``.  The solver reuses such a
key, and retargets it to aligned stores, exactly as it does a tiling --
while the image's source has not been written since the image was
computed.  Element-wise arithmetic on a matrix's values then runs on
the cuts its sparse kernels use, and fuses with them.
"""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis import active_logs, check_log
from repro.apps.matfact import MatrixFactorizationModel
from repro.constraints import solver
from repro.constraints.solver import solve_partitions
from repro.core.convert import expand_row_indices
from repro.legion import (
    ImageByCoordinate,
    ImageByRange,
    Pointwise,
    Privilege,
    Runtime,
    RuntimeConfig,
    Tiling,
    fusion,
)
from repro.legion.partition import derivation
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit
from repro.numeric.array import ndarray


def _runtime(procs=2, fusion=True, validate=False):
    return Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(fusion=fusion, validate=validate),
    )


@pytest.fixture
def rt():
    runtime = _runtime()
    with runtime_scope(runtime):
        yield runtime


def _matrix(per_row, ncols=8):
    """A CSR with ``per_row[i]`` entries in row ``i`` (columns 0..)."""
    per_row = np.asarray(per_row)
    rows = np.repeat(np.arange(len(per_row)), per_row)
    cols = np.concatenate([np.arange(c) for c in per_row])
    values = np.arange(1.0, len(rows) + 1.0)
    return sp.csr_matrix((values, (rows, cols)), shape=(len(per_row), ncols))


def _is_pos_image(key, A):
    return type(key) is ImageByRange and key.pos is A.pos.region


def _same_cuts(a, b):
    """Equal derivation and equal row cuts (trailing extents aside)."""
    return derivation(a) == derivation(b) and (
        a.tile_boundaries() == b.tile_boundaries() is not None
    )


# ----------------------------------------------------------------------
# Which stores carry an image key
# ----------------------------------------------------------------------
def test_new_csr_keys_crd_and_vals_by_the_pos_image(rt):
    A = _matrix([1, 2, 3, 1, 4, 1, 2, 2])
    for store in (A.crd, A.vals):
        key = store.key_partition
        assert _is_pos_image(key, A) and key.region is store.region
        assert key.pos_partition.boundaries == Tiling.create_boundaries(8, 2)
        # Rows 0-3 hold 7 entries, rows 4-7 hold 9.
        assert key.tile_boundaries() == (0, 7, 16)


def test_sddmm_and_expand_rows_outputs_carry_the_image(rt):
    A = _matrix([1, 2, 3, 1, 4, 1, 2, 2])
    U = rnp.random.standard_normal((8, 3))
    V = rnp.random.standard_normal((8, 3))
    sampled = A.sample(U, V).vals.key_partition
    rows = expand_row_indices(A)
    expanded = rows.store.key_partition
    for key in (sampled, expanded):
        assert _is_pos_image(key, A)
        assert _same_cuts(key, A.vals.key_partition)
    # x + 1 on either runs through the image, retargeted to its output.
    for out in (ndarray(A.sample(U, V).vals) + 1.0, rows + 1):
        key = out.store.key_partition
        assert _is_pos_image(key, A) and key.region is out.store.region
        assert _same_cuts(key, sampled)
    # An aligned 2-D output takes the same row cuts over its full width.
    gathered = rnp.gather_rows(U, rows).store.key_partition
    assert _is_pos_image(gathered, A) and _same_cuts(gathered, expanded)
    assert gathered.rect(1).hi == (16, 3)


@pytest.mark.parametrize(
    "per_row",
    [[0, 0, 0, 0, 2, 1, 3, 1], [0] * 8],
    ids=["empty-tile", "nnz-0"],
)
def test_an_image_with_an_empty_tile_is_no_key(rt, per_row):
    A = _matrix(per_row)
    assert A.vals.key_partition is None and A.crd.key_partition is None
    out = A.sample(rnp.ones((8, 2)), rnp.ones((8, 2)))
    assert out.vals.key_partition is None
    assert type((out.data + 1.0).store.key_partition) is Tiling


def test_a_color_count_mismatch_falls_back_to_a_tiling(rt):
    A = _matrix([1, 2, 3, 1, 4, 1, 2, 2])
    vals = A.vals
    cache = rt._image_cache
    same = solve_partitions([vals], [], 2, image_cache=cache)
    assert same[vals.region.uid] is vals.key_partition
    other = solve_partitions([vals], [], 3, image_cache=cache)
    assert type(other[vals.region.uid]) is Tiling
    # Without the runtime's epochs no image key can be proved current.
    assert type(solve_partitions([vals], [], 2)[vals.region.uid]) is Tiling


# ----------------------------------------------------------------------
# The epoch guard
# ----------------------------------------------------------------------
def _rewritten_pos_program():
    """An element-wise op on an image-keyed array and an SpMV over the
    result, in one window, after the matrix's ``pos`` was rewritten:
    rows 0-3 held 4 of 20 entries and now hold 16."""
    A = _matrix([1, 1, 1, 1, 4, 4, 4, 4])
    x = A.data * 2.0  # keyed by the image of the old pos
    counts = np.array([4, 4, 4, 4, 1, 1, 1, 1])
    ends = np.cumsum(counts)
    ndarray(A.pos)[:] = rnp.array(np.stack([ends - counts, ends], axis=1))
    y = x + 1.0
    B = sp.csr_matrix._from_stores(A.pos, A.crd, y.store, A.shape)
    return (B @ rnp.arange(8.0)).to_numpy().tobytes()


def _run_validated(program, fusion):
    rt = _runtime(fusion=fusion, validate=True)
    with runtime_scope(rt):
        out = program()
    rt.barrier()
    return out, check_log(rt.event_log), rt


def test_an_image_key_of_a_rewritten_pos_is_not_reused():
    fused, violations, rt = _run_validated(_rewritten_pos_program, True)
    eager, clean, _ = _run_validated(_rewritten_pos_program, False)
    assert fused == eager
    assert violations == [] and clean == []
    # The add fell back to a tiling, so it cannot share the SpMV's
    # shards: the two run as separate launches.
    assert [names for names, _, _ in rt.fusion_log[-2:]] == [
        ("add",), ("csr:y(i)=A(i,j)*x(j):gpu",),
    ]


def test_mutant_without_the_epoch_check_is_caught(monkeypatch):
    def no_epoch_check(store, colors, image_cache=None):
        key = store.key_partition
        if type(key) is ImageByRange and key.color_count == colors:
            return key
        return usable_key(store, colors, image_cache)

    usable_key = solver.usable_key
    eager, _, _ = _run_validated(_rewritten_pos_program, False)
    monkeypatch.setattr(solver, "usable_key", no_epoch_check)
    fused, violations, _ = _run_validated(_rewritten_pos_program, True)
    # The stale image has the fresh one's derivation, so the add and the
    # SpMV fuse, and a shard reads rects another has not yet written.
    assert fused != eager
    assert any(v.kind == "intra-launch-race" for v in violations)
    # The mutant's log is meant to fail; keep it from the suite's
    # REPRO_VALIDATE=1 replay.
    for log in active_logs():
        log.clear()


# ----------------------------------------------------------------------
# Fusion over image keys
# ----------------------------------------------------------------------
def _norm_program():
    A = _matrix([1, 2, 3, 1, 4, 1, 2, 2])
    x = A.data * 2.0
    norm = rnp.linalg.norm(x)
    pending = norm.future.roots is not None
    return pending, np.float64(float(norm)).tobytes()


def test_a_norm_over_an_image_key_joins_the_window():
    (pending, fused), violations, rt = _run_validated(_norm_program, True)
    (_, eager), _, _ = _run_validated(_norm_program, False)
    assert pending and fused == eager and violations == []
    assert ("multiply", "norm2") in [names for names, _, _ in rt.fusion_log]


def test_a_scalar_reduction_joins_over_disjoint_images_only(rt):
    A = _matrix([1, 2, 3, 1, 4, 1, 2, 2])
    x = rnp.ones(8)
    aliased = ImageByCoordinate(A.crd.region, A.crd.key_partition, x.store.region)
    assert not aliased.is_disjoint()  # both halves hold columns 0-2

    def joins(region, partition):
        return fusion.summarize(
            "norm2", 2, [("x", region, partition, Privilege.READ)],
            pointwise=Pointwise(("norm2",)), reduction="sum",
        ).fusible

    assert joins(A.vals.region, A.vals.key_partition)
    assert not joins(x.store.region, aliased)


def _matfact_batch():
    data = np.random.default_rng(7)
    users, items = data.integers(0, 60, 800), data.integers(0, 40, 800)
    model = MatrixFactorizationModel(60, 40, k=4, mu=3.0, seed=2)
    losses = [
        model.train_batch(users[s], items[s], data.uniform(1, 5, 400))
        for s in (slice(0, 400), slice(400, 800))
    ]
    return [float(loss) for loss in losses], [
        a.to_numpy().tobytes() for a in (model.U, model.V, model.bu, model.bi)
    ]


def test_fused_matfact_batch_is_bitwise_eager():
    fused, violations, rt = _run_validated(_matfact_batch, True)
    eager, clean, _ = _run_validated(_matfact_batch, False)
    assert fused == eager and violations == [] and clean == []
    # The bias gathers, the error, both gradient SpMMs, the bias sums and
    # the loss norm are one group, filled up by the U update's first ops.
    sparse = (
        "gather_rows", "add", "gather_rows", "add", "add", "subtract",
        "csr:Y(i,k)=A(i,j)*X(j,k):gpu", "fill", "csr:Y(j,k)=A(i,j)*X(i,k):gpu",
        "csr:y(i)=A(i,j):gpu", "fill", "csr:y(j)=A(i,j):gpu", "norm2",
    )
    assert any(
        len(names) == 16 and names[:13] == sparse
        for names, _, _ in rt.fusion_log
    )
