"""COO assembly on the fused sort key equals the two-key assembly, byte
for byte: order, duplicate sums, ``indptr``."""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csr import _canonicalize_coo


def _two_key_assembly(
    row: np.ndarray, col: np.ndarray, data: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_canonicalize_coo`` as it was at fb01e37, verbatim."""
    order = np.lexsort((col, row))
    row, col, data = row[order], col[order], data[order]
    if len(row):
        fresh = np.empty(len(row), dtype=bool)
        fresh[0] = True
        fresh[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not fresh.all():
            starts = np.flatnonzero(fresh)
            data = np.add.reduceat(data, starts)
            row, col = row[starts], col[starts]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, row + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, col.astype(np.int64), data


def _assert_same(row, col, data, shape):
    got = _canonicalize_coo(row, col, data, shape)
    want = _two_key_assembly(row, col, data, shape)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@st.composite
def coo_triples(draw):
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    # Few distinct cells, many entries: duplicates and empty rows both.
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    live_rows = rng.choice(nrows, size=draw(st.integers(1, nrows)), replace=False)
    row = rng.choice(live_rows, size=n).astype(np.int64)
    col = rng.integers(0, ncols, size=n, dtype=np.int64)
    dtype = draw(st.sampled_from([np.float64, np.float32, np.complex128]))
    # Graded magnitudes: a duplicate sum is order-sensitive in floats.
    data = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)).astype(dtype)
    return row, col, data, (nrows, ncols)


@settings(max_examples=200, deadline=None)
@given(coo_triples())
def test_fused_key_assembly_is_bytewise_the_two_key_one(triple):
    _assert_same(*triple)


@pytest.mark.parametrize(
    "shape", [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3)], ids=str
)
def test_empty_input(shape):
    empty = np.empty(0, np.int64)
    _assert_same(empty, empty, np.empty(0, np.float64), shape)


def test_one_row_all_duplicates():
    n = 50
    row = np.zeros(n, np.int64)
    col = np.full(n, 3, np.int64)
    data = np.random.default_rng(0).standard_normal(n)
    _assert_same(row, col, data, (1, 4))
    indptr, crd, vals = _canonicalize_coo(row, col, data, (1, 4))
    assert indptr.tolist() == [0, 1] and crd.tolist() == [3] and len(vals) == 1


def test_narrow_index_dtype_does_not_overflow_the_key():
    row = np.array([40_000, 3, 40_000, 3], dtype=np.int32)
    col = np.array([60_000, 1, 60_000, 0], dtype=np.int32)
    _assert_same(row, col, np.arange(4.0), (50_000, 70_000))


def test_key_overflow_falls_back_to_the_two_key_sort():
    shape = (4, 2**62)  # 4 * 2**62 does not fit the fused int64 key
    rng = np.random.default_rng(1)
    row = rng.integers(0, 4, size=40, dtype=np.int64)
    col = rng.choice(
        np.array([0, 1, 2**61, 2**62 - 1], dtype=np.int64), size=40
    )
    _assert_same(row, col, rng.standard_normal(40), shape)
