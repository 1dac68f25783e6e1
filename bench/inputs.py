"""Seeded input generators: NumPy/SciPy only, nothing from the program.

The program under test receives only the operands built here, so a
change to ``src/`` can never change what a workload is asked to do.
Every generator is a pure function of its arguments; the seed also
moves each problem's *size* by a few percent, so that the modeled clock
is not one constant for all seeds (structure, not values, is what the
cost model sees).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.sparse as sps


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


def poisson2d(k: int) -> sps.csr_matrix:
    """The 5-point Laplacian on a k x k grid (k*k rows), CSR."""
    t = sps.diags(
        [2.0 * np.ones(k), -np.ones(k - 1), -np.ones(k - 1)], [0, 1, -1]
    )
    eye = sps.eye(k)
    m = (sps.kron(eye, t) + sps.kron(t, eye)).tocsr()
    m.sort_indices()
    return m


def poisson_problem(
    seed: int, base_grid: int, step: int, stream: int
) -> Tuple[int, sps.csr_matrix, np.ndarray]:
    """``(k, A, b)``: grid side ``base_grid + step * U{0..7}``, b ~ U(0.5, 1.5)."""
    rng = rng_for(seed, stream)
    k = base_grid + step * int(rng.integers(0, 8))
    return k, poisson2d(k), rng.uniform(0.5, 1.5, k * k)


def _zipf_cdf(n: int, exponent: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def ratings(
    seed: int, n_users: int, n_items: int, n_ratings: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MovieLens-like triples: Zipf item popularity, lognormal user
    activity, half-star ratings with user/item biases, unique pairs."""
    rng = rng_for(seed, 3)
    item_cdf = _zipf_cdf(n_items)
    user_w = rng.lognormal(0.0, 1.0, size=n_users)
    user_cdf = np.cumsum(user_w)
    user_cdf /= user_cdf[-1]
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < n_ratings:
        # Popular pairs collide: about half of the draws are duplicates.
        need = int((n_ratings - len(keys)) * 2.5) + 16
        u = np.searchsorted(user_cdf, rng.random(need)).astype(np.int64)
        i = np.searchsorted(item_cdf, rng.random(need)).astype(np.int64)
        keys = np.unique(np.concatenate([keys, u * n_items + i]))
    keys = rng.permutation(keys)[:n_ratings]
    users, items = keys // n_items, keys % n_items
    raw = (
        3.5
        + rng.normal(0.0, 0.4, n_users)[users]
        + rng.normal(0.0, 0.6, n_items)[items]
        + rng.normal(0.0, 0.7, n_ratings)
    )
    return users, items, np.clip(np.round(raw * 2) / 2, 0.5, 5.0)


@dataclass
class ServeTraffic:
    """One serve_mixed input: two model versions and a request stream."""

    versions: List[sps.csr_matrix]
    arrival: np.ndarray  # modeled seconds, ascending
    tenant: np.ndarray  # tenant index per request
    x: List[np.ndarray]  # right-hand sides (float64, some float32)
    duration: float  # the arrival horizon, N / rate

    def digest(self) -> str:
        """sha256 of the arrival/tenant/dtype sequence (selftest: the
        generator is a pure function of the seed)."""
        h = hashlib.sha256()
        h.update(self.arrival.tobytes())
        h.update(self.tenant.tobytes())
        h.update("".join(v.dtype.char for v in self.x).encode())
        return h.hexdigest()


def _serve_model(rng, rows: int, cols: int, nnz: int) -> sps.csr_matrix:
    c = np.searchsorted(_zipf_cdf(cols), rng.random(nnz))
    r = rng.integers(0, rows, nnz)
    m = sps.csr_matrix((rng.standard_normal(nnz), (r, c)), shape=(rows, cols))
    m.sum_duplicates()
    m.sort_indices()
    return m


def serve_traffic(
    seed: int,
    rows: int,
    cols: int,
    nnz: int,
    requests: int,
    rate: float,
    tenants: int,
    dup_share: float = 0.2,
    pool: int = 16,
    f32_share: float = 0.1,
) -> ServeTraffic:
    """Open-loop traffic: ``requests`` Poisson arrivals over
    ``requests / rate`` modeled seconds.

    A Poisson process conditioned on its count is uniform order
    statistics, so the horizon (and with it ``modeled_s``) is the same
    for every seed while gaps and bursts still vary.
    """
    rng = rng_for(seed, 4)
    versions = [_serve_model(rng, rows, cols, nnz) for _ in range(2)]
    duration = requests / rate
    arrival = np.sort(rng.uniform(0.0, duration, requests))
    tenant = rng.integers(0, tenants, requests)
    shared = [rng.standard_normal(cols) for _ in range(pool)]
    dup = rng.random(requests) < dup_share
    pick = rng.integers(0, pool, requests)
    f32 = rng.random(requests) < f32_share
    xs = []
    for i in range(requests):
        x = shared[pick[i]] if dup[i] else rng.standard_normal(cols)
        xs.append(x.astype(np.float32) if f32[i] else x)
    return ServeTraffic(versions, arrival, tenant, xs, duration)
