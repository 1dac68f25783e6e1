"""An SGD batch only issues, sparse work first: same bits as before.

``train_batch`` returns its RMSE as a deferred ``Scalar`` and predicts
on the batch pattern with ``csr_matrix.sample`` (``U·Vᵀ`` sampled on
``R``'s pattern, no ones array); ``sgd_epoch`` reads the losses once,
at epoch end.  It issues the row sums, the column sums and the loss
norm right after the two gradient SpMMs, before the dense updates, so
all of a batch's sparse work shares one fusion window.  The contract:

* **values** -- ``U``, ``V``, ``bu``, ``bi``, every per-batch loss and
  the epoch mean are bitwise those of the batch that floated its loss
  and ran the SDDMM over a ones array, kept verbatim below as
  ``waiting_train_batch``/``waiting_sgd_epoch``, and those of the batch
  that issued its sums after its updates, kept verbatim below as
  ``reference_train_batch``: fused and eager, on 1, 2 and 4 GPUs, with
  a short last batch and with ``max_batches``;
* **the clock** -- in an epoch of four batches nothing waits before the
  last batch's launches are issued;
* **the shape** -- in a warm epoch of four batches each batch executes
  3 launches, and issues its row sums, column sums and loss norm before
  its first dense ``multiply``;
* **the kernel** -- ``sample(C, D)`` is bitwise ``sddmm`` of the
  unit-valued matrix, whatever the matrix's own values: on empty rows,
  ``nnz = 0``, a row tile with no non-zeros and float32 factors.

Mutants each test catches: ``train_batch`` floating its loss again
fails the clock test; the sums moved back after the updates fail the
shape test; the sampled kernel multiplying by the matrix's values fails
the ``sample`` test.
"""

import types
from typing import Optional, Tuple

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.matfact import FactorSnapshot, MatrixFactorizationModel, sgd_epoch
from repro.apps.movielens import synthetic_movielens
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit
from repro.numeric.array import Scalar


# ----------------------------------------------------------------------
# The batch that waited, verbatim from before the deferred loss
# ----------------------------------------------------------------------
def _waiting_predict_on_pattern(self, R, rows, cols, snap=None):
    snap = snap or self._snapshot
    ones = R._with_values(rnp.ones(R.nnz))
    dots = ones.sddmm(snap.U, snap.V).data
    return dots + snap.bu[rows] + snap.bi[cols] + snap.mu


def waiting_train_batch(self, users, items, ratings) -> float:
    snap = self._snapshot
    R, rows, cols = self._batch_matrices(users, items, ratings)
    nnz = R.nnz
    preds = _waiting_predict_on_pattern(self, R, rows, cols, snap)
    err_vals = preds - R.data
    err = R._with_values(err_vals)
    scale = 1.0 / nnz
    # Factor gradients: two sparse-dense products.
    dU = err @ snap.V  # (n_users, k)
    dV = err._matmat_transpose(snap.U)  # (n_items, k)
    new_U = snap.U - (dU * scale + snap.U * self.reg) * self.lr
    new_V = snap.V - (dV * scale + snap.V * self.reg) * self.lr
    # Bias gradients: row/column sums of the error matrix.
    new_bu = snap.bu - (err.sum(axis=1) * scale + snap.bu * self.reg) * self.lr
    new_bi = snap.bi - (err.sum(axis=0) * scale + snap.bi * self.reg) * self.lr
    self._snapshot = FactorSnapshot(
        snap.version + 1, snap.mu, new_U, new_V, new_bu, new_bi
    )
    self.stats.samples += nnz
    self.stats.batches += 1
    return float(rnp.linalg.norm(err_vals)) / np.sqrt(nnz)


def waiting_sgd_epoch(
    model: MatrixFactorizationModel,
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    batch_size: int = 4096,
    rng: Optional[np.random.Generator] = None,
    max_batches: Optional[int] = None,
) -> Tuple[int, float]:
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(len(users))
    total, losses = 0, []
    n_batches = (len(users) + batch_size - 1) // batch_size
    if max_batches is not None:
        n_batches = min(n_batches, max_batches)
    for b in range(n_batches):
        sel = order[b * batch_size : (b + 1) * batch_size]
        if not len(sel):
            break
        losses.append(model.train_batch(users[sel], items[sel], ratings[sel]))
        total += len(sel)
    return total, float(np.mean(losses)) if losses else 0.0


# ----------------------------------------------------------------------
# The batch that issued its sums after its updates, verbatim from before
# the sparse-first order
# ----------------------------------------------------------------------
def reference_train_batch(self, users, items, ratings) -> Scalar:
    snap = self._snapshot
    R, rows, cols = self._batch_matrices(users, items, ratings)
    nnz = R.nnz
    preds = self._predict_on_pattern(R, rows, cols, snap)
    err_vals = preds - R.data
    err = R._with_values(err_vals)
    scale = 1.0 / nnz
    # Factor gradients: two sparse-dense products.
    dU = err @ snap.V  # (n_users, k)
    dV = err._matmat_transpose(snap.U)  # (n_items, k)
    new_U = snap.U - (dU * scale + snap.U * self.reg) * self.lr
    new_V = snap.V - (dV * scale + snap.V * self.reg) * self.lr
    # Bias gradients: row/column sums of the error matrix.
    new_bu = snap.bu - (err.sum(axis=1) * scale + snap.bu * self.reg) * self.lr
    new_bi = snap.bi - (err.sum(axis=0) * scale + snap.bi * self.reg) * self.lr
    self._snapshot = FactorSnapshot(
        snap.version + 1, snap.mu, new_U, new_V, new_bu, new_bi
    )
    self.stats.samples += nnz
    self.stats.batches += 1
    return rnp.linalg.norm(err_vals) / np.sqrt(nnz)


# ----------------------------------------------------------------------
# Values: bitwise the reference
# ----------------------------------------------------------------------
N_USERS, N_ITEMS = 70, 50

# 700 ratings in batches of 200: three full batches and a short one.
CASES = {
    "short-last": dict(batch_size=200, max_batches=None),
    "max-batches": dict(batch_size=200, max_batches=2),
}


def _train(step, case: dict, gpus: int, fusion: bool):
    """Two epochs with ``step`` as the batch; the model's bytes, every
    batch loss, both results."""
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, gpus),
        RuntimeConfig.legate(fusion=fusion),
    )
    waiting = step is waiting_train_batch
    with runtime_scope(rt):
        users, items, ratings = synthetic_movielens(N_USERS, N_ITEMS, 700, seed=9)
        model = MatrixFactorizationModel(
            N_USERS, N_ITEMS, k=5, lr=0.05, mu=float(ratings.mean()), seed=2
        )
        losses = []

        def recorded(self, *batch):
            losses.append(step(self, *batch))
            return losses[-1]

        model.train_batch = types.MethodType(recorded, model)
        epoch = waiting_sgd_epoch if waiting else sgd_epoch
        shuffle = np.random.default_rng(4)
        results = [
            epoch(model, users, items, ratings, rng=shuffle, **case)
            for _ in range(2)
        ]
        if not waiting:
            assert all(isinstance(loss, Scalar) for loss in losses)
        losses = [float(loss) for loss in losses]
        bits = [a.to_numpy().tobytes() for a in (model.U, model.V, model.bu, model.bi)]
        return bits, losses, results


def _assert_bitwise(got, want, case):
    assert got[0] == want[0]
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
    assert got[2] == want[2]
    # The cases train what their names say.
    batches = {"short-last": 4, "max-batches": 2}[case]
    assert len(got[1]) == 2 * batches
    assert got[2][0][0] == (700 if case == "short-last" else 400)


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
@pytest.mark.parametrize("gpus", [1, 2, 4], ids=["p1", "p2", "p4"])
@pytest.mark.parametrize("case", CASES)
def test_sgd_is_bitwise_the_waiting_batch(case, gpus, fusion):
    want = _train(waiting_train_batch, CASES[case], gpus, fusion)
    got = _train(MatrixFactorizationModel.train_batch, CASES[case], gpus, fusion)
    _assert_bitwise(got, want, case)


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
@pytest.mark.parametrize("gpus", [1, 2, 4], ids=["p1", "p2", "p4"])
@pytest.mark.parametrize("case", CASES)
def test_sgd_is_bitwise_the_updates_first_batch(case, gpus, fusion):
    want = _train(reference_train_batch, CASES[case], gpus, fusion)
    got = _train(MatrixFactorizationModel.train_batch, CASES[case], gpus, fusion)
    _assert_bitwise(got, want, case)


# ----------------------------------------------------------------------
# The clock: nothing waits before the last batch is issued
# ----------------------------------------------------------------------
def _issue_order(step, monkeypatch) -> list:
    """``("batch",)``, ``("launch",)`` and ``("wait",)`` in the order a
    warm epoch of four batches makes them, with ``step`` as the batch."""
    events = []
    launch, wait = Runtime.launch, Runtime.wait

    def logged_launch(self, task):
        events.append(("launch",))
        return launch(self, task)

    def logged_wait(self, future):
        events.append(("wait",))
        return wait(self, future)

    def logged_step(self, *batch):
        events.append(("batch",))
        return step(self, *batch)

    rt = Runtime(summit(nodes=1).scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(rt):
        users, items, ratings = synthetic_movielens(N_USERS, N_ITEMS, 800, seed=5)
        model = MatrixFactorizationModel(N_USERS, N_ITEMS, k=4, seed=3)
        model.train_batch = types.MethodType(logged_step, model)
        sgd_epoch(model, users, items, ratings, batch_size=200)  # warm-up
        rt.barrier()
        monkeypatch.setattr(Runtime, "launch", logged_launch)
        monkeypatch.setattr(Runtime, "wait", logged_wait)
        events.clear()
        sgd_epoch(model, users, items, ratings, batch_size=200)
        monkeypatch.undo()
    return events


def test_no_wait_before_the_last_batch_is_issued(monkeypatch):
    events = _issue_order(MatrixFactorizationModel.train_batch, monkeypatch)
    batches = [i for i, ev in enumerate(events) if ev == ("batch",)]
    assert len(batches) == 4
    last_launch = max(i for i, ev in enumerate(events) if ev == ("launch",))
    assert batches[-1] < last_launch < events.index(("wait",))


def test_the_waiting_batch_fails_the_clock_test(monkeypatch):
    """The reference waits inside every batch: what the clock test
    above rejects."""
    events = _issue_order(waiting_train_batch, monkeypatch)
    batches = [i for i, ev in enumerate(events) if ev == ("batch",)]
    assert events.index(("wait",)) < batches[1]


# ----------------------------------------------------------------------
# The shape: a batch's sparse work shares a window
# ----------------------------------------------------------------------
SPARSE_SUMS = ("y(i)=A(i,j)", "y(j)=A(i,j)", "norm2")


def _batch_shapes(step, monkeypatch) -> list:
    """``[names, executed]`` per batch of a warm epoch of four, with
    ``step`` as the batch: the names it issues and the launches executed
    while it issues them."""
    shapes = []
    launch = Runtime.launch

    def logged_launch(self, task):
        shapes[-1][0].append(task.name)
        return launch(self, task)

    def logged_step(self, *batch):
        shapes.append([[], rt.profiler.tasks_launched])
        loss = step(self, *batch)
        shapes[-1][1] = rt.profiler.tasks_launched - shapes[-1][1]
        return loss

    rt = Runtime(summit(nodes=1).scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(rt):
        users, items, ratings = synthetic_movielens(N_USERS, N_ITEMS, 800, seed=5)
        model = MatrixFactorizationModel(N_USERS, N_ITEMS, k=4, seed=3)
        model.train_batch = types.MethodType(step, model)
        sgd_epoch(model, users, items, ratings, batch_size=200)  # warm-up
        rt.barrier()
        model.train_batch = types.MethodType(logged_step, model)
        monkeypatch.setattr(Runtime, "launch", logged_launch)
        sgd_epoch(model, users, items, ratings, batch_size=200)
        monkeypatch.undo()
    return shapes


def _sums_before_updates(names) -> bool:
    first_update = names.index("multiply")
    return all(
        any(sum_ in name for name in names[:first_update]) for sum_ in SPARSE_SUMS
    )


def test_a_batch_is_three_launches_with_its_sums_before_its_updates(monkeypatch):
    shapes = _batch_shapes(MatrixFactorizationModel.train_batch, monkeypatch)
    assert len(shapes) == 4
    for names, executed in shapes:
        assert executed == 3
        assert _sums_before_updates(names), names


def test_the_updates_first_batch_fails_the_shape_test(monkeypatch):
    """The reference issues its sums after its updates: what the shape
    test above rejects."""
    shapes = _batch_shapes(reference_train_batch, monkeypatch)
    assert len(shapes) == 4
    for names, executed in shapes:
        assert executed == 5
        assert not _sums_before_updates(names)


# ----------------------------------------------------------------------
# The kernel: sample == sddmm over ones
# ----------------------------------------------------------------------
def _pattern(name: str) -> sps.csr_matrix:
    rng = np.random.default_rng(11)
    dense = rng.uniform(-2.0, 2.0, (16, 12)) * (rng.random((16, 12)) < 0.3)
    if name == "empty-rows":
        dense[[0, 3, 4, 9, 15]] = 0.0
    elif name == "nnz-0":
        dense[:] = 0.0
    elif name == "empty-tile":
        # On 4 GPUs rows 4-11 are the middle two tiles.
        dense[4:12] = 0.0
    mat = sps.csr_matrix(dense)
    mat.data[mat.data == 1.0] = 1.5  # no unit values by accident
    return mat


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("gpus", [1, 2, 4], ids=["p1", "p2", "p4"])
@pytest.mark.parametrize("pattern", ["empty-rows", "nnz-0", "empty-tile"])
def test_sample_is_bitwise_sddmm_over_ones(pattern, gpus, dtype):
    host = _pattern(pattern)
    rng = np.random.default_rng(12)
    rt = Runtime(summit(nodes=1).scope(ProcessorKind.GPU, gpus), RuntimeConfig.legate())
    with runtime_scope(rt):
        A = sp.csr_matrix(host)
        C = rnp.array(rng.standard_normal((16, 7)).astype(dtype))
        D = rnp.array(rng.standard_normal((12, 7)).astype(dtype))
        got = A.sample(C, D)
        want = A._with_values(rnp.ones(A.nnz, dtype=dtype)).sddmm(C, D)
        assert got.pos is A.pos and got.crd is A.crd
        assert got.shape == A.shape
        assert got.dtype == want.dtype == dtype
        assert got.data.to_numpy().tobytes() == want.data.to_numpy().tobytes()
        rows, cols = host.nonzero()
        expect = np.einsum("nk,nk->n", C.to_numpy()[rows], D.to_numpy()[cols])
        np.testing.assert_allclose(got.data.to_numpy(), expect, rtol=1e-5)
    assert A.nnz == host.nnz and (pattern != "nnz-0" or A.nnz == 0)
