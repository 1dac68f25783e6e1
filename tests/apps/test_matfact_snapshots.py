"""Matfact snapshot semantics: prediction is safe against training.

``train_batch`` publishes each epoch as an immutable
:class:`FactorSnapshot` with one reference assignment — the only
mutation a concurrent reader can ever observe.  These tests pin the
contract that makes that safe: published snapshots never change bytes
after more training, prediction reads exactly one epoch (pinned or
current-at-entry), and the atomic-publish rewrite left the SGD
numerics themselves intact (training still converges).
"""

import numpy as np
import pytest

from repro.apps.matfact import FactorSnapshot, MatrixFactorizationModel
from repro.apps.movielens import synthetic_movielens

N_USERS, N_ITEMS = 90, 60


@pytest.fixture
def data():
    return synthetic_movielens(N_USERS, N_ITEMS, 900, seed=3)


def _model(data):
    _, _, ratings = data
    return MatrixFactorizationModel(
        N_USERS, N_ITEMS, k=6, lr=0.05, mu=float(ratings.mean()), seed=1
    )


def test_train_publishes_new_epochs_atomically(data):
    model = _model(data)
    users, items, ratings = data
    snap0 = model.snapshot()
    assert isinstance(snap0, FactorSnapshot)
    assert model.version == 0
    model.train_batch(users, items, ratings)
    snap1 = model.snapshot()
    assert model.version == 1
    assert snap1 is not snap0
    # The exposed parameters ARE the current snapshot's arrays — a
    # reader that pins a snapshot and a reader that reads properties
    # see the same epoch.
    assert model.U is snap1.U
    assert model.bu is snap1.bu


def test_published_snapshots_are_immutable_under_training(data):
    model = _model(data)
    users, items, ratings = data
    snap0 = model.snapshot()
    before = (
        snap0.U.to_numpy().copy(), snap0.V.to_numpy().copy(),
        snap0.bu.to_numpy().copy(), snap0.bi.to_numpy().copy(),
    )
    for _ in range(3):
        model.train_batch(users, items, ratings)
    after = (snap0.U, snap0.V, snap0.bu, snap0.bi)
    for b, a in zip(before, after):
        assert b.tobytes() == a.to_numpy().tobytes()


def test_interleaved_predict_reads_one_consistent_epoch(data):
    """A reader interleaved with training sees some *published* epoch —
    never fresh factors mixed with stale biases.  Every interleaved
    prediction must equal the prediction recomputed from the snapshot
    that was current when the read started."""
    model = _model(data)
    users, items, ratings = data
    qu, qi = users[:40], items[:40]
    pinned = []
    for step in range(4):
        snap = model.snapshot()  # the read "starts" here
        live = model.predict(qu, qi)
        # Recompute from the pinned epoch: identical bytes, because
        # predict captured exactly one published snapshot.
        again = model.predict(qu, qi, snapshot=snap)
        assert live.tobytes() == again.tobytes()
        pinned.append((snap, live.copy()))
        model.train_batch(users, items, ratings)
    # Old pinned epochs still reproduce their bytes after training
    # moved on — the concurrent-reader guarantee, replayed post hoc.
    for snap, expected in pinned:
        replay = model.predict(qu, qi, snapshot=snap)
        assert replay.tobytes() == expected.tobytes()
    # And training actually progressed the published model.
    assert model.version == 4
    assert pinned[0][1].tobytes() != model.predict(qu, qi).tobytes()


def test_atomic_publish_preserves_sgd_numerics(data):
    """Compute-then-publish must match the classic sequential update:
    training still reduces RMSE on the training triples."""
    model = _model(data)
    users, items, ratings = data
    before = model.rmse(users, items, ratings)
    for _ in range(8):
        model.train_batch(users, items, ratings)
    assert model.rmse(users, items, ratings) < before
    assert model.stats.batches == 8


def test_predict_matches_rmse_pathway(data):
    model = _model(data)
    users, items, ratings = data
    preds = model.predict(users, items)
    rmse = float(np.sqrt(np.mean((preds - ratings) ** 2)))
    assert rmse == pytest.approx(model.rmse(users, items, ratings), rel=1e-9)


def test_predict_answers_duplicate_pairs(data):
    """COO assembly sums duplicate pairs: predict asks for each unique
    pair once and answers every query, bitwise the unique-pair call."""
    model = _model(data)
    model.train_batch(*data)
    unique = model.predict([1, 3], [0, 2])
    got = model.predict([1, 1, 3, 1], [0, 0, 2, 0])
    assert got.tobytes() == unique[[0, 0, 1, 0]].tobytes()
    # The caller's order, not the canonical one.
    assert model.predict([3, 1], [2, 0]).tobytes() == unique[::-1].tobytes()
    assert model.predict([3], [2]).tobytes() == unique[1:].tobytes()
    empty = model.predict([], [])
    assert empty.shape == (0,)
