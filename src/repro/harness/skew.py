"""Seeded power-law (skewed) sparse-matrix generator.

Scale-free graphs and preferential-attachment meshes give SpMV its
hardest row-length distributions: most rows hold a handful of nonzeros
while a heavy tail holds tens to hundreds, so equal-row tiles carry
very unequal nonzero counts.  This module generates such matrices
deterministically (a seeded :class:`numpy.random.Generator`) so tests
that need skewed operands — e.g. the processor-count invariance
property over CSR — exercise the same bits on every run.

Row lengths are drawn from a *discrete* power law over the integer
support ``[min_len, max_len]`` with weights proportional to
``k**-exponent``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sps

#: Defaults: ~25x max/mean row-length skew.
DEFAULT_EXPONENT = 2.2
DEFAULT_MAX_LEN = 64

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def power_law_row_lengths(
    n: int,
    exponent: float = DEFAULT_EXPONENT,
    max_len: int = DEFAULT_MAX_LEN,
    min_len: int = 1,
    seed: SeedLike = 0,
) -> np.ndarray:
    """``n`` row lengths with ``P(len = k) ~ k**-exponent``.

    Lengths are clipped to ``[min_len, max_len]``; the distribution is
    sampled directly over that support (not rejection-clipped), so the
    tail mass piles at ``max_len`` only through the weight it earns.
    """
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    if not (0 < min_len <= max_len):
        raise ValueError(f"need 0 < min_len <= max_len, got [{min_len}, {max_len}]")
    support = np.arange(min_len, max_len + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** -float(exponent)
    weights /= weights.sum()
    return _rng(seed).choice(support, size=n, p=weights).astype(np.int64)


def power_law_csr(
    n: int,
    m: Optional[int] = None,
    exponent: float = DEFAULT_EXPONENT,
    max_len: int = DEFAULT_MAX_LEN,
    min_len: int = 1,
    seed: SeedLike = 0,
    dtype=np.float64,
) -> sps.csr_matrix:
    """A seeded ``n x m`` SciPy CSR matrix with power-law row lengths.

    Each row gets sorted, duplicate-free column indices (canonical CSR)
    and standard-normal values; complex dtypes get a distinct imaginary
    part so bitwise comparisons can't pass by accident.
    """
    m = n if m is None else m
    rng = _rng(seed)
    lengths = np.minimum(
        power_law_row_lengths(n, exponent, max_len, min_len, rng), m
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int64)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        indices[lo:hi] = np.sort(rng.choice(m, hi - lo, replace=False))
    data = rng.standard_normal(nnz)
    if np.dtype(dtype).kind == "c":
        data = data + 1j * rng.standard_normal(nnz)
    mat = sps.csr_matrix(
        (data.astype(dtype), indices, indptr), shape=(n, m)
    )
    return mat
