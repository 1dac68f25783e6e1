"""Sparse matrix factorization with bias, trained by mini-batch SGD
(paper §6.2, Fig. 12).

The model is the classic biased factorization (Koren et al.):

    r̂(u, i) = μ + b_u + b_i + U[u] · V[i]

The training loop follows the paper: batches of samples are assembled
into sparse matrices, predictions on the batch pattern are computed with
**SDDMM** (``U Vᵀ`` sampled on the pattern, never the dense product),
and the gradients are two sparse-times-dense products (``err @ V`` and
``errᵀ @ U``) plus row and column sums for the biases — all distributed
operations.  A batch's RMSE is a deferred ``Scalar``: nothing in a batch
blocks the host, so one batch's launches queue behind the previous
one's and :func:`sgd_epoch` reads the losses once, at epoch end.

A batch issues its sparse work (both gradient SpMMs, the row and
column sums, the loss norm) before its dense updates, so that it
shares one fusion window with the error it reads: a warm batch is 3
launches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.core.convert import expand_row_indices
from repro.numeric.array import Scalar, ndarray


@dataclass
class TrainStats:
    """Samples and batches processed so far."""
    samples: int = 0
    batches: int = 0


@dataclass(frozen=True)
class FactorSnapshot:
    """One published epoch of model parameters.

    Immutable by contract: training never mutates a published
    snapshot's arrays in place — it computes the next epoch's arrays
    and publishes a *new* snapshot with one reference assignment.  A
    reader that captured a snapshot therefore sees one consistent
    epoch forever, no matter how many train steps run concurrently.
    """

    version: int
    mu: float
    U: ndarray
    V: ndarray
    bu: ndarray
    bi: ndarray


class MatrixFactorizationModel:
    """Biased matrix factorization (Koren et al.), trained with distributed SDDMM/SpMM batches.

    Parameters live in an immutable :class:`FactorSnapshot` published
    with a single attribute swap per train step, so prediction is safe
    under concurrent readers: a reader either sees the epoch before a
    ``train_batch`` or the epoch after, never a half-updated mix of
    fresh ``U`` with stale ``bu``.  ``U``/``V``/``bu``/``bi`` are
    read-only views of the current snapshot; :meth:`snapshot` pins an
    epoch across multiple calls.
    """
    def __init__(
        self,
        n_users: int,
        n_items: int,
        k: int = 32,
        lr: float = 0.01,
        reg: float = 0.02,
        mu: float = 3.5,
        seed: int = 0,
    ):
        self.n_users, self.n_items, self.k = n_users, n_items, k
        self.lr, self.reg, self.mu = lr, reg, mu
        rnp.random.seed(seed)
        self._snapshot = FactorSnapshot(
            version=0,
            mu=mu,
            U=rnp.random.standard_normal((n_users, k)) * (1.0 / np.sqrt(k)),
            V=rnp.random.standard_normal((n_items, k)) * (1.0 / np.sqrt(k)),
            bu=rnp.zeros(n_users),
            bi=rnp.zeros(n_items),
        )
        self.stats = TrainStats()

    # -- published parameters (read-only views of the current epoch) ----
    def snapshot(self) -> FactorSnapshot:
        """Pin the current epoch for a consistent multi-read sequence."""
        return self._snapshot

    @property
    def version(self) -> int:
        """Epoch counter: bumps once per published train step."""
        return self._snapshot.version

    @property
    def U(self) -> ndarray:
        return self._snapshot.U

    @property
    def V(self) -> ndarray:
        return self._snapshot.V

    @property
    def bu(self) -> ndarray:
        return self._snapshot.bu

    @property
    def bi(self) -> ndarray:
        return self._snapshot.bi

    # ------------------------------------------------------------------
    def _batch_matrices(self, users, items, ratings):
        """Assemble the batch sparse matrix and its index/rating arrays.

        The returned arrays follow the matrix's canonical (row, col)
        order, so value-space arithmetic lines up entry for entry.
        """
        R = sp.csr_matrix(
            (ratings, (users, items)), shape=(self.n_users, self.n_items)
        )
        rows = expand_row_indices(R)
        cols = ndarray(R.crd)
        return R, rows, cols

    def _predict_on_pattern(
        self, R, rows, cols, snap: Optional[FactorSnapshot] = None
    ) -> ndarray:
        snap = snap or self._snapshot
        dots = R.sample(snap.U, snap.V).data
        return dots + snap.bu[rows] + snap.bi[cols] + snap.mu

    # ------------------------------------------------------------------
    def train_batch(self, users, items, ratings) -> Scalar:
        """One SGD step on a batch; returns the batch RMSE (pre-update)
        as a deferred :class:`Scalar`: the step only issues launches,
        and ``float()`` on the result is the one wait.

        Every gradient reads the *pinned* pre-step snapshot, the next
        epoch's arrays are fully computed first, and only then is the
        new snapshot published (one reference assignment).  Numerics
        match the classic sequential in-place update exactly — each
        update's right-hand side only ever used pre-step values — but a
        concurrent predict can no longer observe fresh factors mixed
        with stale biases.

        The sparse work (both SpMMs, the row and column sums, the loss
        norm) is issued before any dense update, so that it shares a
        fusion window with the gathers and the error it reads.
        Each value is the same expression over the same operands
        whichever is issued first, so the order changes the launches,
        not the bits.
        """
        snap = self._snapshot
        R, rows, cols = self._batch_matrices(users, items, ratings)
        nnz = R.nnz
        preds = self._predict_on_pattern(R, rows, cols, snap)
        err_vals = preds - R.data
        err = R._with_values(err_vals)
        scale = 1.0 / nnz
        # Sparse work: factor gradients (two sparse-dense products), bias
        # gradients (row/column sums of the error matrix), batch loss.
        dU = err @ snap.V  # (n_users, k)
        dV = err._matmat_transpose(snap.U)  # (n_items, k)
        du = err.sum(axis=1)
        di = err.sum(axis=0)
        loss = rnp.linalg.norm(err_vals) / np.sqrt(nnz)
        # Dense updates.
        new_U = snap.U - (dU * scale + snap.U * self.reg) * self.lr
        new_V = snap.V - (dV * scale + snap.V * self.reg) * self.lr
        new_bu = snap.bu - (du * scale + snap.bu * self.reg) * self.lr
        new_bi = snap.bi - (di * scale + snap.bi * self.reg) * self.lr
        self._snapshot = FactorSnapshot(
            snap.version + 1, snap.mu, new_U, new_V, new_bu, new_bi
        )
        self.stats.samples += nnz
        self.stats.batches += 1
        return loss

    def predict(self, users, items, snapshot: Optional[FactorSnapshot] = None):
        """Predicted ratings for (user, item) pairs.

        Reads one consistent epoch: the given pinned ``snapshot``, or
        the currently-published one captured once at entry.  A pair
        asked for twice is predicted once.
        """
        snap = snapshot or self._snapshot
        pairs = np.stack([np.asarray(users), np.asarray(items)], axis=1)
        # Unique pairs in (user, item) order: the order of the canonical
        # CSR _batch_matrices builds, where duplicates would be summed.
        pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
        ones = np.ones(len(pairs))
        R, rows, cols = self._batch_matrices(pairs[:, 0], pairs[:, 1], ones)
        preds = self._predict_on_pattern(R, rows, cols, snap)
        return preds.to_numpy()[inverse.reshape(-1)]

    def rmse(self, users, items, ratings) -> float:
        """Root-mean-square error on given triples."""
        snap = self._snapshot
        R, rows, cols = self._batch_matrices(users, items, ratings)
        preds = self._predict_on_pattern(R, rows, cols, snap)
        err = preds - R.data
        return float(rnp.linalg.norm(err)) / np.sqrt(R.nnz)

    def memory_footprint_bytes(self, n_ratings: int) -> int:
        """Approximate resident bytes at full dataset scale (Fig. 12's
        minimum-resources column derives from this + batch temporaries)."""
        factors = (self.n_users + self.n_items) * self.k * 8
        biases = (self.n_users + self.n_items) * 8
        ratings = n_ratings * (8 + 8 + 8)  # coo triples in device memory
        return factors + biases + ratings


def sgd_epoch(
    model: MatrixFactorizationModel,
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    batch_size: int = 4096,
    rng: Optional[np.random.Generator] = None,
    max_batches: Optional[int] = None,
) -> Tuple[int, float]:
    """Shuffle and train one epoch; returns (samples, mean batch RMSE).

    The batches are issued back to back; their losses are read once, at
    the end, so the host waits once per epoch, not once per batch.
    """
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
    losses = [float(loss) for loss in losses]
    return total, float(np.mean(losses)) if losses else 0.0
