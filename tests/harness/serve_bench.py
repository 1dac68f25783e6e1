"""Serve bench: a seeded load generator against the multi-tenant service.

A test fixture: ``bench/inputs.py`` generates the ``serve_mixed``
workload's traffic, so the package ships no second load generator.

The shared model is a MovieLens-style factorization
(:mod:`repro.apps.matfact` over :mod:`repro.apps.movielens` data): each
published *matrix version* is the model's predicted-ratings matrix on
the observed pattern after ``v`` training steps, and a request is a
user taste profile ``x`` scored as ``R_pred @ x`` — one SpMV against
the shared model.

The load generator is a pure function of the seed: per-tenant streams
of bursty arrivals with a tunable duplicate-input rate (cache traffic),
dtype mix and mid-run model updates (version churn).
:func:`run_scenario` serves one workload and returns its metrics with
a digest per request, so two scenarios compare bit for bit: the result
cache on versus off, and a chaos tenant's dedicated runtime versus a
run without it — ``test_serve_bench.py`` asserts each at reduced sizes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sps

from repro.apps.matfact import MatrixFactorizationModel
from repro.apps.movielens import synthetic_movielens
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit
from repro.serve import ServiceConfig, SparseService, TenantConfig

SERVE_USERS = 384
SERVE_ITEMS = 256
SERVE_RATINGS = 6_000
SERVE_K = 8
SERVE_PROCS = 2
# Arrivals come in bursts (a burst shares one arrival instant, bursts
# are ``gap`` apart) so scheduling windows actually contain co-pending
# requests whose launches share one deferred window.
BURST = 4
BURST_GAP = 2.5e-4


# ----------------------------------------------------------------------
# The shared model
# ----------------------------------------------------------------------
def build_model_versions(seed: int = 0, n_versions: int = 2) -> List:
    """Predicted-ratings matrices after 0..n-1 training steps.

    Version ``v`` is the factorization's prediction on the observed
    rating pattern after ``v`` full-batch SGD steps — a model update
    between versions is exactly "the trainer published a new epoch".
    """
    users, items, ratings = synthetic_movielens(
        SERVE_USERS, SERVE_ITEMS, SERVE_RATINGS, seed=seed
    )
    machine = summit(nodes=1)
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, SERVE_PROCS),
        RuntimeConfig.legate(),
    )
    versions = []
    with runtime_scope(rt):
        model = MatrixFactorizationModel(
            SERVE_USERS, SERVE_ITEMS, k=SERVE_K,
            mu=float(ratings.mean()), seed=seed,
        )
        for _ in range(n_versions):
            R, rows, cols = model._batch_matrices(users, items, ratings)
            preds = model._predict_on_pattern(R, rows, cols).to_numpy()
            versions.append(
                sps.csr_matrix(
                    (preds, (rows.to_numpy(), cols.to_numpy())),
                    shape=(SERVE_USERS, SERVE_ITEMS),
                )
            )
            model.train_batch(users, items, ratings)
    return versions


# ----------------------------------------------------------------------
# The load generator (pure function of the seed)
# ----------------------------------------------------------------------
def generate_streams(
    seed: int,
    tenants: Sequence[str],
    requests_per_tenant: int,
    n: int = SERVE_ITEMS,
    dup_rate: float = 0.0,
    dtype_mix: float = 0.0,
) -> Dict[str, List[Tuple[float, np.ndarray]]]:
    """Per-tenant ``(arrival, x)`` streams with bursty arrivals.

    ``dup_rate`` draws the RHS from a small shared pool (identical
    bytes → cache-hittable, including across tenants); ``dtype_mix``
    downcasts some requests to float32.
    """
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal(n) for _ in range(4)]
    streams: Dict[str, List[Tuple[float, np.ndarray]]] = {}
    for tenant in tenants:
        t = 0.0
        items: List[Tuple[float, np.ndarray]] = []
        for i in range(requests_per_tenant):
            if i and i % BURST == 0:
                t += BURST_GAP
            if dup_rate and rng.random() < dup_rate:
                x = pool[int(rng.integers(len(pool)))]
            else:
                x = rng.standard_normal(n)
            if dtype_mix and rng.random() < dtype_mix:
                x = x.astype(np.float32)
            items.append((t, x))
        streams[tenant] = items
    return streams


# ----------------------------------------------------------------------
# Scenario runner
# ----------------------------------------------------------------------
def _digest(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


def run_scenario(
    versions: Sequence,
    tenants: Sequence[TenantConfig],
    streams: Dict[str, List[Tuple[float, np.ndarray]]],
    cache_capacity: int = 256,
    update_after: Optional[int] = None,
    window: int = 8,
) -> Dict:
    """Serve one workload; returns metrics plus per-request digests and
    finish times.

    ``update_after`` publishes model version 1 after that many
    requests have been admitted (version churn: in-flight requests
    keep their pinned version, later admissions see the new one).
    """
    svc = SparseService(
        versions[0],
        list(tenants),
        ServiceConfig(
            procs=SERVE_PROCS,
            window=window,
            cache_capacity=cache_capacity,
        ),
    )
    if update_after is None:
        responses = svc.serve_streams(streams)
    else:
        ordered = sorted(
            (
                (arrival, tenant, x)
                for tenant, items in streams.items()
                for arrival, x in items
            ),
            key=lambda item: item[0],
        )
        for i, (arrival, tenant, x) in enumerate(ordered):
            if i == update_after:
                svc.update_model(versions[1])
            svc.submit(tenant, x, arrival)
        responses = svc.run()
    stats = svc.stats()
    prof = svc.runtime.profiler
    ok = [r for r in responses.values() if r.ok]
    # Digests key on (tenant, per-tenant sequence), so two scenarios over
    # the same streams compare request by request.
    digests: Dict[str, str] = {}
    finish: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    for r in sorted(ok, key=lambda resp: resp.rid):
        seq = counters.get(r.tenant, 0)
        counters[r.tenant] = seq + 1
        digests[f"{r.tenant}:{seq}"] = _digest(r.y)
        finish[f"{r.tenant}:{seq}"] = r.finish
    latencies = sorted(r.latency for r in ok)
    arrivals = [a for items in streams.values() for a, _ in items]
    span = (
        max((r.finish for r in ok), default=0.0) - min(arrivals, default=0.0)
    )
    return {
        "requests": sum(len(items) for items in streams.values()),
        "served": stats.requests_served,
        "failed": stats.requests_failed,
        "throughput_rps": len(ok) / span if span > 0 else 0.0,
        "p50_latency_s": float(np.percentile(latencies, 50)) if latencies else 0.0,
        "p99_latency_s": float(np.percentile(latencies, 99)) if latencies else 0.0,
        "launches": stats.launches,
        "cache_hits": stats.cache.hits,
        "launch_overhead_s": prof.launch_overhead_seconds,
        "digests": digests,
        "finish": finish,
        "isolated_faults": {
            name: {
                k: v
                for k, v in sorted(
                    dom.runtime.profiler.faults_injected.items()
                )
                if v
            }
            for name, dom in svc._domains.items()
            if name != "shared"
        },
        "shared_faults": {
            k: v for k, v in sorted(prof.faults_injected.items()) if v
        },
    }
