"""Per-request launches: planning, version pinning, latency accounting."""

import numpy as np
import scipy.sparse as sps

from repro.legion.timeline import set_profile_default
from repro.serve import (
    Request,
    ServiceConfig,
    SparseService,
    SpMVBatcher,
    TenantConfig,
)

N = 64


def _requests(specs):
    """Requests from (rid, dtype, n, version) specs with seeded values."""
    out = []
    for rid, dtype, n, version in specs:
        rng = np.random.default_rng(rid)
        out.append(
            Request(
                rid, "t", rng.standard_normal(n).astype(dtype), 0.0, version
            )
        )
    return out


def _matrix(seed=0, n=N):
    return sps.random(
        n, n, density=0.12, random_state=seed, format="csr", dtype=np.float64
    )


def _service(**cfg):
    return SparseService(
        _matrix(),
        [TenantConfig("t")],
        ServiceConfig(procs=2, cache_capacity=0, **cfg),
    )


def _served(xs, **cfg):
    """Serve ``xs`` at time 0 on a fresh service; returns the service."""
    svc = _service(**cfg)
    for x in xs:
        svc.submit("t", x, arrival=0.0)
    svc.run()
    return svc


def test_mixed_dtypes_refuse_to_stack():
    """Mixed dtypes in one round: each response has the dtype and the
    bytes that its request alone produces."""
    window = _requests(
        [(0, "float64", N, 0), (1, "float64", N, 0), (2, "float32", N, 0)]
    )
    svc = _served([r.x for r in window])
    for req in window:
        alone = _served([req.x]).responses[0].y
        y = svc.responses[req.rid].y
        assert y.dtype == alone.dtype
        assert y.tobytes() == alone.tobytes()
    assert svc.stats().refusals == {}


def test_version_mismatch_splits_batches():
    """Mixed versions: plan keeps every request, its pinned version and
    the window order."""
    window = _requests(
        [(0, "float64", N, 0), (1, "float64", N, 0), (2, "float64", N, 1)]
    )
    plan = SpMVBatcher().plan(window)
    assert all(entry is req for entry, req in zip(plan, window))
    assert [entry.version for entry in plan] == [0, 0, 1]


def test_shape_mismatch_refuses():
    """Mixed lengths, dtypes and versions: nothing groups, nothing
    reorders."""
    window = _requests(
        [
            (0, "float64", N, 0), (1, "float32", N, 0), (2, "float64", N, 1),
            (3, "float64", 2 * N, 0), (4, "float64", N, 0),
        ]
    )
    plan = SpMVBatcher().plan(window)
    assert len(plan) == len(window)
    assert all(entry is req for entry, req in zip(plan, window))


def test_lone_request_is_a_benign_refusal():
    """A lone request is served like any other: planned as itself,
    computing ``A @ x``, no refusal counted."""
    (req,) = _requests([(0, "float64", N, 0)])
    svc = _served([req.x])
    assert SpMVBatcher().plan([req]) == [req]
    assert len(svc.responses) == 1 and svc.responses[0].ok
    np.testing.assert_allclose(
        svc.responses[0].y, _matrix() @ req.x, rtol=1e-12
    )
    assert svc.stats().refusals == {}


def test_max_batch_chunks_wide_windows():
    """``max_batch`` is inert: a wide window serves the same bytes, at
    the same modeled times, with the same launches under 3 as under 8."""
    xs = [r.x for r in _requests([(i, "float64", N, 0) for i in range(8)])]
    narrow, wide = _served(xs, max_batch=3), _served(xs, max_batch=8)
    for rid in range(len(xs)):
        a, b = narrow.responses[rid], wide.responses[rid]
        assert a.y.tobytes() == b.y.tobytes()
        assert (a.start, a.finish) == (b.start, b.finish)
    assert narrow.stats().launches == wide.stats().launches


def test_service_version_churn_splits_but_stays_correct():
    """A model update mid-stream pins versions: every request computes
    against the matrix it was admitted under."""
    A0, A1 = _matrix(seed=0), _matrix(seed=9)
    svc = SparseService(
        A0,
        [TenantConfig("t")],
        ServiceConfig(procs=2, cache_capacity=0),
    )
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal(N) for _ in range(6)]
    for x in xs[:3]:
        svc.submit("t", x, arrival=0.0)
    svc.update_model(A1)
    for x in xs[3:]:
        svc.submit("t", x, arrival=0.0)
    svc.run()
    for rid, x in enumerate(xs):
        expect = (A0 if rid < 3 else A1) @ x
        np.testing.assert_allclose(svc.responses[rid].y, expect, rtol=1e-9)
    assert svc.stats().refusals == {}


# ----------------------------------------------------------------------
# Latency accounting vs the timeline profiler
# ----------------------------------------------------------------------
def test_latency_accounting_conserves_against_timeline():
    """p50/p99 inputs are modeled times that reconcile with the
    profiler: responses are causally ordered (arrival <= start <=
    finish), the last finish IS the runtime horizon, and every
    recorded span fits inside it."""
    previous = set_profile_default(True)
    try:
        svc = _service()
    finally:
        set_profile_default(previous)
    rng = np.random.default_rng(1)
    for i in range(10):
        svc.submit("t", rng.standard_normal(N), arrival=2.5e-4 * (i // 4))
    responses = svc.run()
    ok = [r for r in responses.values() if r.ok]
    assert len(ok) == 10
    for r in ok:
        assert r.arrival <= r.start <= r.finish
        assert r.latency >= 0.0
    horizon = svc.runtime.elapsed()
    assert max(r.finish for r in ok) == horizon
    spans = svc.runtime.timeline.spans
    assert spans, "profiling run recorded no spans"
    assert max(s.finish for s in spans) <= horizon + 1e-12
    # Per-request latencies decompose into wait + service: each
    # response's start is at or after the window that launched it.
    p99 = float(np.percentile([r.latency for r in ok], 99))
    assert p99 <= horizon - min(r.arrival for r in ok)
