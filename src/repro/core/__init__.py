"""``repro.core``: the Legate Sparse reproduction (the paper's system).

A distributed drop-in for ``scipy.sparse``: COO, CSR, CSC and DIA
matrices stored as collections of regions (Fig. 3), partitioned through
the constraint system, computed on by DISTAL-generated kernels, and
composing with :mod:`repro.numeric` arrays.  ``repro.sparse`` re-exports
this package under the familiar name.

Like the paper's prototype, matrix *assembly* happens on the host (SciPy's
sequential LIL/DOK formats are out of scope), while every *operation* on
an assembled matrix is a distributed task launch.
"""

from repro.core.base import spmatrix, issparse
from repro.core.bsr import bsr_array, bsr_matrix
from repro.core.coo import coo_array, coo_matrix
from repro.core.csc import csc_array, csc_matrix
from repro.core.csr import csr_array, csr_matrix
from repro.core.dia import dia_array, dia_matrix
from repro.core.construct import (
    diags,
    eye,
    hstack,
    identity,
    kron,
    rand,
    random,
    vstack,
)
from repro.core.extra import (
    block_diag,
    count_nonzero,
    find,
    setdiag,
    spdiags,
    tril,
    triu,
)
from repro.core.io import load_npz, save_npz
from repro.core import linalg

__all__ = [
    "block_diag",
    "bsr_array",
    "bsr_matrix",
    "coo_array",
    "coo_matrix",
    "csc_array",
    "csc_matrix",
    "csr_array",
    "csr_matrix",
    "dia_array",
    "dia_matrix",
    "diags",
    "count_nonzero",
    "eye",
    "find",
    "hstack",
    "identity",
    "issparse",
    "kron",
    "linalg",
    "load_npz",
    "rand",
    "random",
    "save_npz",
    "setdiag",
    "spdiags",
    "spmatrix",
    "tril",
    "triu",
    "vstack",
]
