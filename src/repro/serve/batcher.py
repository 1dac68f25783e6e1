"""Cross-request SpMV batching: stack compatible RHS into one launch.

A window of pending requests usually contains many SpMVs against the
*same* matrix.  Launch overhead is per-launch, not per-byte (the
paper's small-task lesson), so the batcher stacks ``k`` compatible
right-hand sides into one ``(n, k)`` operand and issues a single
multi-vector launch — ``Y(i,k) = A(i,j) * X(j,k)`` — then splits the
result columns back per request.  One launch overhead instead of ``k``.

**Bitwise identity.**  The CSR SpMM kernel reduces each output column
through the same per-row segmented sum the SpMV kernel calls
(:func:`repro.distal.codegen.segment_sums`: ``np.add.reduceat`` along
the non-zero axis of a ``(k, nnz)`` contribution block).  Per (row,
column) that is ``seg[0] + pairwise(seg[1:])`` over exactly the products
the lone SpMV forms, and a row's bits depend on that row alone — not on
the stacked width, not on the shard boundaries.  Column ``k`` of the
batched result is therefore bit-for-bit the vector the per-request
launch would have produced, with a per-row error of at most
``nnz_row * eps * (|A||x|)_row`` either way — enforced by property tests
over random request mixes (``tests/serve/test_batcher.py``), by
``tests/distal/test_segment_sums.py`` for k in {2, 4, 8}, and by the
serve bench's sha256 comparison.

**Legality.**  Requests batch only when every column means the same
thing to the kernel:

* same matrix **version** — a model update between two requests splits
  the batch (each request computes against the version it was admitted
  under);
* same RHS **dtype** — the kernel promotes the matrix once per operand
  dtype, so mixing float32/float64 columns would change accumulation
  types;
* same RHS **length** (trivially: they target the same matrix).

Refusals are counted by reason; :mod:`repro.serve.advisor` turns a
refusal-dominated workload into a lint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.scheduler import Request


@dataclass(frozen=True)
class BatchKey:
    """The batching-legality key: columns sharing it may stack."""

    matrix_version: int
    n: int
    dtype: str

    @classmethod
    def for_request(cls, req: Request) -> "BatchKey":
        return cls(req.version, int(req.x.shape[0]), str(req.x.dtype))


@dataclass
class Batch:
    """One planned launch: requests whose RHS stack into one operand."""

    key: BatchKey
    requests: List[Request]

    @property
    def width(self) -> int:
        return len(self.requests)


@dataclass
class SpMVBatcher:
    """Plans windows into batches; executes them against a matrix.

    ``max_batch`` bounds the stacked width (an over-wide operand loses
    the cache-friendly column count real multi-vector kernels want);
    ``max_batch=1`` degrades to per-request execution — the unbatched
    comparison mode the bench uses.
    """

    max_batch: int = 8
    # Why singleton launches stayed singletons: reason -> count.
    # "lone-request" is benign (nothing co-pending to stack with);
    # the mismatch reasons feed the serve lints.
    refusals: Dict[str, int] = field(default_factory=dict)
    batches_executed: int = 0
    requests_batched: int = 0

    def _refuse(self, reason: str, count: int = 1) -> None:
        self.refusals[reason] = self.refusals.get(reason, 0) + count

    # -- planning -------------------------------------------------------
    def plan(self, window: Sequence[Request]) -> List[Batch]:
        """Partition a window into batches, preserving window order.

        Requests with the same :class:`BatchKey` stack (chunked to
        ``max_batch``); a request left alone records why.
        """
        groups: Dict[BatchKey, List[Request]] = {}
        for req in window:
            groups.setdefault(BatchKey.for_request(req), []).append(req)
        batches: List[Batch] = []
        for key, reqs in groups.items():
            if len(reqs) == 1 and len(window) > 1:
                self._refuse(self._mismatch_reason(key, groups))
            for i in range(0, len(reqs), max(self.max_batch, 1)):
                chunk = reqs[i : i + max(self.max_batch, 1)]
                batches.append(Batch(key, chunk))
        if len(window) == 1:
            self._refuse("lone-request")
        return batches

    def _mismatch_reason(
        self, key: BatchKey, groups: Dict[BatchKey, List[Request]]
    ) -> str:
        """Why this singleton could not join any other group."""
        for other in groups:
            if other is key:
                continue
            if other.dtype != key.dtype and other.n == key.n:
                return "dtype-mix"
            if other.matrix_version != key.matrix_version:
                return "version-churn"
        if any(o.n != key.n for o in groups if o is not key):
            return "shape-mismatch"
        return "lone-request"

    # -- execution ------------------------------------------------------
    def execute(
        self, batch: Batch, matrix, runtime
    ) -> List[Tuple[Request, np.ndarray]]:
        """Run one batch; returns per-request result vectors.

        A width-1 batch issues the ordinary SpMV; width >= 2 stacks the
        RHS column-wise, issues one multi-vector launch and splits the
        result columns.  Results are host copies (they leave the
        runtime at the service boundary).
        """
        import repro.numeric as rnp

        reqs = batch.requests
        if len(reqs) == 1:
            y = matrix @ rnp.asarray(reqs[0].x)
            return [(reqs[0], y.to_numpy().copy())]
        X = np.stack([r.x for r in reqs], axis=1)
        Y = (matrix @ rnp.asarray(X)).to_numpy()
        self.batches_executed += 1
        self.requests_batched += len(reqs)
        runtime.profiler.record_spmv_batch(len(reqs))
        return [(req, Y[:, k].copy()) for k, req in enumerate(reqs)]
