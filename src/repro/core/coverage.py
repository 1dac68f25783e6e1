"""API-coverage inventory, mirroring the paper's §5 taxonomy.

The paper's prototype implements 176 of ~492 SciPy Sparse functions:
14 generated with DISTAL, 156 ported onto existing kernels and
cuNumeric, 6 hand-written.  This module records which part of the SciPy
Sparse surface *this* reproduction implements and by which strategy, so
the claim is checkable (``tests/core/test_api_coverage.py``) and the
README can report honest numbers.
"""

from __future__ import annotations

from typing import Dict, List

# Operations whose kernels come out of the DISTAL registry (one entry
# per statement x format pair that the sparse library dispatches to).
GENERATED: List[str] = [
    "csr_matvec",            # y(i) = A(i,j) x(j), CSR
    "csr_rmatvec",           # y(j) = A(i,j) x(i), CSR (and CSC matvec)
    "csr_matmat",            # Y(i,k) = A(i,j) X(j,k)
    "csr_matmat_transpose",  # Y(j,k) = A(i,j) X(i,k) (and CSC matmat)
    "csr_sddmm",             # R = B ⊙ (C @ D^T)
    "csr_sample",            # R = C @ D^T on a CSR's pattern
    "csr_row_sums",          # sum(axis=1)
    "csr_col_sums",          # sum(axis=0)
    "csr_diagonal",
    "dia_matvec",
    "coo_matvec",
    "bsr_matvec",            # block-sparse rows: the paper's planned
                             # next DISTAL format (§5.4), implemented here
]

# Ported: SciPy-API functions implemented on top of the generated
# kernels plus the dense library (the §5.2 bootstrap story).
PORTED: List[str] = [
    # format classes and constructors
    "csr_matrix", "csc_matrix", "coo_matrix", "dia_matrix", "bsr_matrix",
    "csr_array", "csc_array", "coo_array", "dia_array", "bsr_array",
    # construction routines
    "eye", "identity", "diags", "random", "rand", "kron",
    "vstack", "hstack",
    # conversions & structure
    "tocsr", "tocsc", "tocoo", "todia", "tobsr",
    "asformat", "toarray", "todense",
    "transpose", "getnnz", "copy", "astype", "conj", "conjugate",
    "diagonal", "sum", "mean", "issparse", "getrow",
    # value-space algebra (via repro.numeric on the vals region)
    "multiply_scalar", "divide_scalar", "negate", "power", "abs", "sqrt",
    # element-wise structural algebra
    "add", "subtract", "multiply", "maximum", "minimum", "multiply_dense",
    # products
    "dot", "matvec", "rmatvec", "matmat", "matmul_sparse",
    # linalg (ported solver implementations)
    "linalg.cg", "linalg.cgs", "linalg.bicg", "linalg.bicgstab",
    "linalg.gmres", "linalg.eigsh", "linalg.power_iteration",
    "linalg.lobpcg_max", "linalg.norm", "linalg.onenormest",
    "linalg.LinearOperator", "linalg.aslinearoperator",
    "linalg.lsqr", "linalg.spsolve_triangular",
    "linalg.preconditioners.jacobi", "linalg.preconditioners.ssor",
    # integration (scipy.integrate ports used by the paper's workloads)
    "integrate.solve_ivp_rk45", "integrate.solve_ivp_rk4",
    "integrate.solve_ivp_gbs8",
    # extended surface (beyond the paper's prototype)
    "find", "count_nonzero", "setdiag", "spdiags", "block_diag",
    "save_npz", "load_npz", "linalg.expm_multiply",
    "column_slicing", "element_access",
]

# Hand-written distributed implementations (the §5.3 group: sorts and
# index-manipulating operations SciPy does with C loops).
HANDWRITTEN: List[str] = [
    "binary_union",          # structural add/max/min (two-pass)
    "multiply_intersection", # structural Hadamard (two-pass)
    "csr_spgemm",            # symbolic + numeric SpGEMM
    "csr_to_csc_sort",       # global sort conversion
    "expand_row_indices",    # CSR -> COO row expansion
    "row_slicing",           # pos-window row slices
    "structural_filter",     # tril/triu two-pass filter
    "distributed_scan",      # pos-from-counts via two-phase prefix sum
]

# Notable SciPy Sparse surface we have NOT implemented, with the path
# forward the paper sketches (§5.4).
UNIMPLEMENTED: Dict[str, str] = {
    "lil_matrix/dok_matrix": "sequential assembly formats; out of scope "
    "for a distributed library (same position as the paper)",
    "sparse slicing/indexing (column slices, fancy)": "needs hand-written "
    "reshuffle kernels",
    "linalg.spsolve/splu": "general LU factorization calls external "
    "libraries (SuperLU) in SciPy; the triangular-substitution half is "
    "implemented as a gathered task (linalg.spsolve_triangular)",
    "linalg.expm/expm_multiply": "portable on top of existing kernels",
    "save_npz/load_npz": "I/O; straightforward port",
}


def implemented_count() -> int:
    """Total implemented operations across all strategies."""
    return len(GENERATED) + len(PORTED) + len(HANDWRITTEN)


def summary() -> str:
    """One-line coverage summary."""
    return (
        f"{implemented_count()} operations: {len(GENERATED)} DISTAL-generated, "
        f"{len(PORTED)} ported, {len(HANDWRITTEN)} hand-written"
    )


#: Sparse-format name fragments recognized by :func:`op_formats`.
FORMAT_NAMES = ("csr", "csc", "coo", "dia", "bsr")


def op_formats(name: str) -> List[str]:
    """The sparse formats an operation is specific to.

    Derived from naming conventions: ``csr_matvec`` -> ``["csr"]``,
    ``csr_to_csc_sort`` -> ``["csr", "csc"]``, ``todia`` ->
    ``["dia"]``.  Format-generic operations (solvers, constructors,
    element-wise algebra) report ``["any"]``.
    """
    base = name.rsplit(".", 1)[-1]
    if base.startswith("to") and base[2:] in FORMAT_NAMES:
        return [base[2:]]
    found = [
        fmt for fmt in FORMAT_NAMES
        if base == fmt or base.startswith(fmt + "_") or f"_{fmt}_" in base
        or base.endswith(f"_{fmt}")
    ]
    return found or ["any"]


def inventory() -> List[Dict[str, object]]:
    """The full inventory: one row per operation.

    Columns: ``name``, ``strategy`` (generated/ported/handwritten) and
    ``formats``, the sparse formats the operation is specific to
    (``["any"]`` when format-generic).
    """
    return [
        {"name": name, "strategy": strategy, "formats": op_formats(name)}
        for strategy, names in (
            ("generated", GENERATED),
            ("ported", PORTED),
            ("handwritten", HANDWRITTEN),
        )
        for name in names
    ]
