"""The four workloads: what is set up, what one timed repeat does, and
how its output is checked.

Each workload stresses a different layer (bench/README.md has the
table).  All run ``RuntimeConfig.legate()`` defaults — the shipped
configuration.  ``repro`` is imported inside :meth:`setup`, so the
child's set-up time includes the program's imports and input
generation stays free of program code.

Life cycle in a child process (bench/child.py)::

    w = WORKLOADS[name](seed, smoke)
    w.generate()                 # bench-side inputs, from the seed
    w.setup()                    # program: operands, runtime, warm-up
    for each repeat:
        w.prepare()              # untimed
        modeled = w.repeat()     # timed
    w.checks()                   # after the last repeat
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, List, Tuple

import numpy as np

import inputs

Check = Tuple[str, bool, str]  # (name, passed, detail)


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Base: a runtime-backed workload whose repeat ends in a barrier."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rt = None
        self.requests_attempted = 0
        self.requests_failed = 0
        # Host seconds of plain single-threaded baselines, by name.
        self.baselines: Dict[str, float] = {}

    # -- per-workload ---------------------------------------------------
    def params(self) -> dict:
        """The sizes actually run (recorded in every result file)."""
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        """The body of one repeat (the trailing barrier is added here)."""
        raise NotImplementedError

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    # -- shared ---------------------------------------------------------
    def _make_runtime(self, procs: int):
        from repro.legion.runtime import Runtime, RuntimeConfig, set_runtime
        from repro.machine import ProcessorKind, summit

        machine = summit(nodes=math.ceil(procs / 6))
        self.rt = Runtime(
            machine.scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
        )
        set_runtime(self.rt)

    def prepare(self) -> None:
        self._m0 = self.rt.barrier()

    def repeat(self) -> float:
        """One timed repeat; returns its modeled seconds."""
        self.run()
        self.last_modeled_s = self.rt.barrier() - self._m0
        return self.last_modeled_s

    def latencies_ms(self) -> np.ndarray:
        """Modeled per-operation latencies of the last repeat.  Only
        serve_mixed has more than one operation per repeat; elsewhere
        the operation is the repeat itself."""
        return np.array([self.last_modeled_s * 1e3])


class CgWide(Workload):
    name = "cg_wide"
    why = (
        "few launches over many colors: halo lookups across hundreds of "
        "memories make legion.coherence/instance the host cost"
    )

    def params(self):
        if self.smoke:
            return dict(gpus=24, base_grid=64, grid_step=1, iters=2)
        return dict(gpus=448, base_grid=332, grid_step=1, iters=1)

    def generate(self):
        p = self.params()
        self.k, self.A_host, self.b_host = inputs.poisson_problem(
            self.seed, p["base_grid"], p["grid_step"], stream=1
        )

    def setup(self):
        import repro.numeric as rnp
        import repro.sparse as sp

        self.sp = sp
        self._make_runtime(self.params()["gpus"])
        self.A = sp.csr_matrix(self.A_host)
        self.b = rnp.asarray(self.b_host)
        sp.linalg.cg(self.A, self.b, rtol=0.0, maxiter=1)
        self.rt.barrier()

    def run(self):
        self.x, _ = self.sp.linalg.cg(
            self.A, self.b, rtol=0.0, maxiter=self.params()["iters"]
        )

    def _reference(self) -> np.ndarray:
        """The same fixed-iteration recurrence in plain SciPy/NumPy."""
        A, b = self.A_host, self.b_host
        x = np.zeros_like(b)
        r = b - A @ x
        p = r.copy()
        rz = np.vdot(r, r)
        for _ in range(self.params()["iters"]):
            q = A @ p
            alpha = rz / np.vdot(p, q)
            x += p * alpha
            r -= q * alpha
            rz_next = np.vdot(r, r)
            p = r + p * (rz_next / rz)
            rz = rz_next
        return x

    def checks(self):
        t0 = time.perf_counter()
        ref = self._reference()
        self.baselines["scipy_cg_s"] = time.perf_counter() - t0
        got = self.x.to_numpy()
        err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        return [
            (
                "solution allclose(rtol=1e-9) to plain SciPy CG",
                bool(np.allclose(got, ref, rtol=1e-9, atol=0.0)),
                f"max rel err {err:.3e}",
            )
        ]

    def digest(self):
        return _sha(self.x.to_numpy())


class GmgSmallTasks(Workload):
    name = "gmg_small_tasks"
    why = (
        "thousands of small launches on 6 GPUs: the per-launch path "
        "(runtime, fusion window, constraint solve) and the launch-"
        "overhead term of the modeled clock show here only"
    )
    # ||b - Ax|| / ||b|| after the repeat's PCG iterations, measured
    # 0.012-0.024 over seeds 0-19 (0.05 at smoke size); 1.0 is x = 0.
    RESIDUAL_LIMIT = 0.05
    RESIDUAL_LIMIT_SMOKE = 0.25

    def params(self):
        if self.smoke:
            return dict(gpus=6, base_grid=31, grid_step=2, iters=3)
        return dict(gpus=6, base_grid=187, grid_step=2, iters=14)

    def generate(self):
        p = self.params()
        self.k, self.A_host, self.b_host = inputs.poisson_problem(
            self.seed, p["base_grid"], p["grid_step"], stream=2
        )

    def setup(self):
        import repro.numeric as rnp
        import repro.sparse as sp
        from repro.apps.multigrid import TwoLevelGMG

        self.sp = sp
        self._make_runtime(self.params()["gpus"])
        self.A = sp.csr_matrix(self.A_host)
        self.b = rnp.asarray(self.b_host)
        self.gmg = TwoLevelGMG(
            self.A, self.k, coarse_rtol=0.0, coarse_maxiter=8
        )
        self.run(iters=1)
        self.rt.barrier()

    def run(self, iters=None):
        # The preconditioner is rebuilt per repeat (it is one small
        # object) so a traced pass sees the wrapped V-cycle.
        M = self.gmg.as_preconditioner()
        self.x, _ = self.sp.linalg.cg(
            self.A, self.b, rtol=0.0, M=M,
            maxiter=iters or self.params()["iters"],
        )

    def checks(self):
        x = self.x.to_numpy()
        res = float(
            np.linalg.norm(self.b_host - self.A_host @ x)
            / np.linalg.norm(self.b_host)
        )
        limit = (
            self.RESIDUAL_LIMIT_SMOKE if self.smoke else self.RESIDUAL_LIMIT
        )
        return [
            (
                f"host residual ||b-Ax||/||b|| < {limit}",
                res < limit,
                f"residual {res:.4f}",
            )
        ]

    def digest(self):
        return _sha(self.x.to_numpy())


class MatfactSgd(Workload):
    name = "matfact_sgd"
    why = (
        "generated SpMM/SpMM^T/SDDMM kernels and COO->CSR assembly "
        "dominate; fresh regions every batch exercise the write side of "
        "coherence and the instance manager"
    )

    def params(self):
        if self.smoke:
            return dict(gpus=4, users=300, items=200, batch=2_000,
                        batch_step=8, batches=3, k=8, epochs=2)
        return dict(gpus=4, users=6_000, items=2_000, batch=50_000,
                    batch_step=64, batches=8, k=32, epochs=2)

    def generate(self):
        # The seed moves the batch size (and with it the rating count)
        # by up to 2 %, always 8 full batches per epoch.
        p = self.params()
        rng = inputs.rng_for(self.seed, 7)
        self.batch = p["batch"] + p["batch_step"] * int(rng.integers(0, 16))
        self.users, self.items, self.ratings = inputs.ratings(
            self.seed, p["users"], p["items"], self.batch * p["batches"]
        )

    def setup(self):
        from repro.apps import matfact

        p = self.params()
        self.matfact = matfact  # sgd_epoch is looked up per call
        self._make_runtime(p["gpus"])
        self.model = matfact.MatrixFactorizationModel(
            p["users"], p["items"], k=p["k"],
            mu=float(self.ratings.mean()), seed=self.seed,
        )
        self.shuffle = inputs.rng_for(self.seed, 5)
        self._epoch(max_batches=1)
        self.rt.barrier()

    def _epoch(self, max_batches=None) -> float:
        _, loss = self.matfact.sgd_epoch(
            self.model, self.users, self.items, self.ratings,
            batch_size=self.batch, rng=self.shuffle,
            max_batches=max_batches,
        )
        return loss

    def run(self):
        self.losses = [self._epoch() for _ in range(self.params()["epochs"])]

    def checks(self):
        m = self.model
        U, V = m.U.to_numpy(), m.V.to_numpy()
        bu, bi = m.bu.to_numpy(), m.bi.to_numpy()
        pick = inputs.rng_for(self.seed, 6).choice(
            len(self.users), size=min(2_000, len(self.users)), replace=False
        )
        u, i = self.users[pick], self.items[pick]
        dense = m.mu + bu[u] + bi[i] + np.einsum("nk,nk->n", U[u], V[i])
        got = m.predict(u, i)
        err = float(np.max(np.abs(got - dense)))
        falling = all(
            b <= a for a, b in zip(self.losses, self.losses[1:])
        )
        return [
            (
                "predict allclose to mu+b_u+b_i+U[u].V[i]",
                bool(np.allclose(got, dense, rtol=1e-10, atol=1e-12)),
                f"max abs err {err:.3e}",
            ),
            (
                "epoch loss non-increasing over the repeat",
                falling,
                "losses " + ", ".join(f"{v:.6f}" for v in self.losses),
            ),
        ]

    def digest(self):
        m = self.model
        return _sha(*(a.to_numpy() for a in (m.U, m.V, m.bu, m.bi)))


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "open-loop multi-tenant SpMV serving with duplicates, mixed "
        "dtypes and a model update: the only workload where the "
        "scheduler, batcher and result cache do any work"
    )
    ROUND_S = 2e-3  # requests are handed over in 2 ms modeled rounds
    LATENCY_LIMIT_MS = 1.0

    def params(self):
        if self.smoke:
            return dict(gpus=2, tenants=8, rows=512, cols=256, nnz=6_000,
                        requests=200, rate=10_000.0)
        return dict(gpus=2, tenants=8, rows=4096, cols=2048, nnz=100_000,
                    requests=1_200, rate=10_000.0)

    def generate(self):
        p = self.params()
        self.traffic = inputs.serve_traffic(
            self.seed, p["rows"], p["cols"], p["nnz"], p["requests"],
            p["rate"], p["tenants"],
        )

    def _service(self):
        from repro.serve import ServiceConfig, SparseService, TenantConfig

        p = self.params()
        tenants = [
            TenantConfig(f"t{i}", max_queue=64) for i in range(p["tenants"])
        ]
        return SparseService(
            self.traffic.versions[0], tenants,
            ServiceConfig(procs=p["gpus"], window=8, max_batch=8,
                          cache_capacity=256),
        )

    def setup(self):
        # Warm-up on a throwaway service: kernel generation for the
        # single- and multi-vector launches in both dtypes.
        self.svc = self._service()
        t = self.traffic
        for width in (3, 1):
            for dtype in (np.float64, np.float32):
                for i in range(width):
                    self.svc.submit("t0", t.x[i].astype(dtype) + width, 0.0)
                self.svc.run()

    def prepare(self):
        # A fresh service per repeat, so cache and version state start
        # equal and every repeat replays the same stream.
        self.svc = self._service()
        self.rt = self.svc.runtime

    def repeat(self) -> float:
        t, svc = self.traffic, self.svc
        n = len(t.arrival)
        self.rid_to_request: Dict[int, int] = {}
        rejected = 0
        i = 0
        while i < n:
            end = (math.floor(t.arrival[i] / self.ROUND_S) + 1) * self.ROUND_S
            while i < n and t.arrival[i] < end:
                if i == n // 2:
                    svc.update_model(t.versions[1])
                rid = svc.submit(
                    f"t{t.tenant[i]}", t.x[i], float(t.arrival[i])
                )
                if rid is None:
                    rejected += 1
                else:
                    self.rid_to_request[rid] = i
                i += 1
            self.responses = svc.run()
        modeled = svc.runtime.barrier()
        self.requests_attempted += n
        self.requests_failed += rejected + sum(
            not r.ok for r in self.responses.values()
        )
        return modeled

    def latencies_ms(self):
        return np.array([r.latency for r in self.responses.values()]) * 1e3

    def checks(self):
        """Every response of the last repeat against SciPy.  A wrong
        answer counts as a failed request, like a rejected one."""
        t = self.traffic
        n = len(t.arrival)
        wrong = 0
        worst = 0.0
        for rid, resp in self.responses.items():
            if not resp.ok:
                continue  # already counted as failed
            i = self.rid_to_request[rid]
            x = t.x[i]
            ref = t.versions[0 if i < n // 2 else 1] @ x.astype(np.float64)
            rtol = 1e-5 if x.dtype == np.float32 else 1e-10
            scale = float(np.max(np.abs(ref))) or 1.0
            err = float(np.max(np.abs(resp.y - ref))) / scale
            worst = max(worst, err / rtol)
            wrong += err > rtol
        self.requests_failed += wrong
        return [
            (
                "every Response.y matches scipy_version @ x",
                wrong == 0,
                f"{wrong} wrong of {len(self.responses)}, worst "
                f"{worst:.2e} of tolerance",
            )
        ]

    def digest(self):
        order = sorted(self.responses, key=self.rid_to_request.get)
        return _sha(*(self.responses[rid].y for rid in order))


WORKLOADS = {
    w.name: w for w in (CgWide, GmgSmallTasks, MatfactSgd, ServeMixed)
}
