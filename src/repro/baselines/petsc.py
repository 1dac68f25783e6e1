"""A PETSc-like baseline: explicit partitioning and message passing.

This is the comparator the paper measures against — an industry-standard
sparse library where the *user* specifies the distribution.  Matrices are
stored the way PETSc's MPIAIJ stores them: each rank owns a block of
rows, split into a **diagonal block** (columns the rank owns, no
communication) and an **off-diagonal block** (ghost columns gathered from
other ranks with a VecScatter).  Ghost exchange moves exactly the
referenced entries — tighter than Legate's bounding-rect images — and
per-operation overhead is a C library's, not a Python tasking runtime's.

Numerics are exact (NumPy on rank-local blocks); time is simulated on
the same machine model the Legate stack uses, so throughput comparisons
are apples-to-apples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sps

from repro.machine import MachineScope, Processor, reserve

# PETSc-grade constants: a compiled library's per-call cost.
PETSC_OP_OVERHEAD = 2.0e-6
MPI_ALLREDUCE_HOP = 2.0e-6


class MPISim:
    """Per-rank clocks + explicit messages over the machine's channels."""

    def __init__(
        self,
        scope: MachineScope,
        data_scale: float = 1.0,
        comm_scale: Optional[float] = None,
    ):
        self.scope = scope
        self.machine = scope.machine
        self.machine.reset_channels()
        self.procs: List[Processor] = scope.processors
        self.busy = [0.0 for _ in self.procs]
        self.data_scale = float(data_scale)
        self.comm_scale = float(comm_scale) if comm_scale is not None else self.data_scale
        self.bytes_sent = 0
        self.messages = 0
        self.allreduces = 0

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.procs)

    def compute(self, rank: int, flops: float, nbytes: float) -> None:
        """Charge a roofline kernel on one rank."""
        proc = self.procs[rank]
        t = proc.kernel_time(flops * self.data_scale, nbytes * self.data_scale)
        self.busy[rank] += PETSC_OP_OVERHEAD + t

    def send(self, src: int, dst: int, nbytes: int) -> None:
        """Point-to-point transfer; the receiver blocks until delivery.

        Booked on the route's channels by the same gap rule as the
        Legate runtime's copies (:func:`repro.machine.model.reserve`).
        """
        nbytes = int(nbytes * self.comm_scale)
        channels = self.machine.channels_between(
            self.procs[src].memory, self.procs[dst].memory
        )
        latency = sum(c.latency for c in channels)
        bandwidth = min(c.bandwidth for c in channels)
        # The sender's clock is the floor; no rank clock ever falls
        # below the slowest one, so gaps ending by it are dropped.
        _, finish = reserve(
            channels, self.busy[src], min(self.busy), latency,
            nbytes / bandwidth,
        )
        self.busy[dst] = max(self.busy[dst], finish)
        self.bytes_sent += nbytes
        self.messages += 1

    def allreduce(self, nbytes: int = 8) -> None:
        """MPI_Allreduce: tree latency + per-hop overhead."""
        self.allreduces += 1
        t0 = max(self.busy)
        if self.size > 1:
            hops = math.ceil(math.log2(self.size))
            hop_latency = self.machine.interconnect_latency(self.scope.nodes)
            t0 += hops * (
                hop_latency
                + nbytes / self.machine.config.nic_bandwidth
                + MPI_ALLREDUCE_HOP
            )
        self.busy = [t0 for _ in self.busy]

    def barrier(self) -> float:
        """Synchronize all ranks; returns the common time."""
        t = max(self.busy)
        self.busy = [t for _ in self.busy]
        return t

    def elapsed(self) -> float:
        """Latest rank clock."""
        return max(self.busy)


def _row_ranges(n: int, size: int) -> List[Tuple[int, int]]:
    base, extra = divmod(n, size)
    ranges = []
    lo = 0
    for r in range(size):
        hi = lo + base + (1 if r < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class PetscVec:
    """A distributed vector: global truth + ownership ranges."""

    def __init__(self, sim: MPISim, data: np.ndarray):
        self.sim = sim
        self.data = np.asarray(data, dtype=np.float64).copy()
        self.ranges = _row_ranges(len(self.data), sim.size)

    @classmethod
    def zeros(cls, sim: MPISim, n: int) -> "PetscVec":
        """A zero vector."""
        return cls(sim, np.zeros(n))

    @property
    def n(self) -> int:
        """Global length."""
        return len(self.data)

    def local_n(self, rank: int) -> int:
        """Rows owned by a rank."""
        lo, hi = self.ranges[rank]
        return hi - lo

    def copy(self) -> "PetscVec":
        """VecCopy: duplicate with streaming cost."""
        out = PetscVec(self.sim, self.data)
        self._charge_streaming(1)
        return out

    def _charge_streaming(self, nvecs: int) -> None:
        for rank in range(self.sim.size):
            ln = self.local_n(rank)
            self.sim.compute(rank, ln, nvecs * 2.0 * 8.0 * ln)

    def axpy(self, alpha: float, x: "PetscVec") -> None:
        """y += alpha * x."""
        self.data += alpha * x.data
        self._charge_streaming(2)

    def aypx(self, alpha: float, x: "PetscVec") -> None:
        """y = alpha * y + x."""
        self.data = alpha * self.data + x.data
        self._charge_streaming(2)

    def dot(self, other: "PetscVec") -> float:
        """Global dot product (compute + MPI_Allreduce)."""
        for rank in range(self.sim.size):
            ln = self.local_n(rank)
            self.sim.compute(rank, 2.0 * ln, 2.0 * 8.0 * ln)
        self.sim.allreduce()
        return float(np.dot(self.data, other.data))

    def norm(self) -> float:
        """2-norm via the dot product."""
        return math.sqrt(max(self.dot(self), 0.0))


class MatMPIAIJ:
    """Row-distributed CSR with diagonal/off-diagonal block split."""

    def __init__(self, sim: MPISim, mat: sps.csr_matrix):
        self.sim = sim
        self.mat = mat.tocsr()
        n, m = mat.shape
        self.shape = (n, m)
        self.row_ranges = _row_ranges(n, sim.size)
        self.col_ranges = _row_ranges(m, sim.size)
        # Per rank: nnz split into diagonal-block and off-diagonal-block,
        # plus the exact ghost entries needed from each owner rank.
        self.diag_nnz: List[int] = []
        self.offdiag_nnz: List[int] = []
        # ghost_from[rank][owner] = number of x entries gathered
        self.ghost_from: List[Dict[int, int]] = []
        col_owner = np.empty(m, dtype=np.int64)
        for r, (lo, hi) in enumerate(self.col_ranges):
            col_owner[lo:hi] = r
        for r, (lo, hi) in enumerate(self.row_ranges):
            block = self.mat[lo:hi]
            cols = block.indices
            owners = col_owner[cols]
            local = owners == r
            self.diag_nnz.append(int(local.sum()))
            self.offdiag_nnz.append(int((~local).sum()))
            ghosts: Dict[int, int] = {}
            ghost_cols = np.unique(cols[~local])
            for owner, count in zip(
                *np.unique(col_owner[ghost_cols], return_counts=True)
            ):
                ghosts[int(owner)] = int(count)
            self.ghost_from.append(ghosts)

    def mult(self, x: PetscVec, y: Optional[PetscVec] = None) -> PetscVec:
        """y = A @ x with VecScatter ghost gather + local SpMV."""
        if y is None:
            y = PetscVec.zeros(self.sim, self.shape[0])
        # Ghost exchange: exact referenced entries, per (owner -> rank).
        for rank, ghosts in enumerate(self.ghost_from):
            for owner, count in ghosts.items():
                self.sim.send(owner, rank, count * 8)
        # Local SpMV on each rank (diag + offdiag blocks).
        for rank, (lo, hi) in enumerate(self.row_ranges):
            nnz = self.diag_nnz[rank] + self.offdiag_nnz[rank]
            rows = hi - lo
            flops = 2.0 * nnz
            # vals + 64-bit column indices (the artifact's PETSc build
            # uses --with-64-bit-indices) + gathered x, plus indptr and y.
            nbytes = nnz * (8.0 + 8.0 + 8.0) + rows * (8.0 + 8.0)
            self.sim.compute(rank, flops, nbytes)
        y.data[...] = self.mat @ x.data
        return y


class KSP:
    """PETSc-style Krylov solver context (CG)."""

    def __init__(self, sim: MPISim, A: MatMPIAIJ):
        self.sim = sim
        self.A = A
        self.iterations = 0

    def solve_cg(
        self,
        b: PetscVec,
        x: Optional[PetscVec] = None,
        rtol: float = 1e-6,
        maxiter: int = 1000,
    ) -> PetscVec:
        """Hand-written CG, the way the paper's PETSc benchmark drives it.

        A zero start (``x is None``) takes ``r = b`` without a MatMult,
        as ``KSPSolve`` does for a zero initial guess and as
        :func:`repro.core.linalg.cg` does, so Fig. 9 compares the same
        work on both sides.
        """
        r = b.copy()
        if x is None:
            x = PetscVec.zeros(self.sim, b.n)
        else:
            r.axpy(-1.0, self.A.mult(x))
        p = r.copy()
        rr = r.dot(r)
        tol2 = (rtol**2) * max(b.dot(b), 1e-300)
        self.iterations = 0
        for _ in range(maxiter):
            if rr <= tol2:
                break
            q = self.A.mult(p)
            alpha = rr / p.dot(q)
            x.axpy(alpha, p)
            r.axpy(-alpha, q)
            rr_next = r.dot(r)
            beta = rr_next / rr
            p.aypx(beta, r)
            rr = rr_next
            self.iterations += 1
        return x
