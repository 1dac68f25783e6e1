"""The multi-tenant service: admission, fairness, caching, isolation."""

import numpy as np
import pytest
import scipy.sparse as sps

from repro.legion.chaos import ChaosConfig
from repro.serve import (
    FairShareScheduler,
    ServiceConfig,
    SparseService,
    TenantConfig,
)

N = 48


def _matrix(seed=0):
    return sps.random(
        N, N, density=0.15, random_state=seed, format="csr", dtype=np.float64
    )


def _service(tenants, **cfg):
    cfg.setdefault("procs", 2)
    return SparseService(_matrix(), tenants, ServiceConfig(**cfg))


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_bounded_queues_reject_overflow():
    svc = _service([TenantConfig("t", max_queue=3)])
    rng = np.random.default_rng(0)
    rids = [svc.submit("t", rng.standard_normal(N), 0.0) for _ in range(5)]
    assert [r is None for r in rids] == [False, False, False, True, True]
    stats = svc.stats()
    assert stats.requests_admitted == 3
    assert stats.requests_rejected == 2
    assert svc.runtime.profiler.serve_rejections == 2
    # Rejections surface as a lint.
    svc.run()
    assert any(i.code == "serve-queue-pressure" for i in svc.advise())


def test_duplicate_tenant_registration_rejected():
    scheduler = FairShareScheduler()
    scheduler.register(TenantConfig("t"))
    with pytest.raises(ValueError, match="already registered"):
        scheduler.register(TenantConfig("t"))


# ----------------------------------------------------------------------
# Fair-share scheduling
# ----------------------------------------------------------------------
def test_stride_scheduling_is_weight_proportional():
    scheduler = FairShareScheduler()
    scheduler.register(TenantConfig("heavy", weight=3.0))
    scheduler.register(TenantConfig("light", weight=1.0))
    for i in range(40):
        scheduler.admit("heavy", np.zeros(2), 0.0, 0)
        scheduler.admit("light", np.zeros(2), 0.0, 0)
    window = scheduler.take_window(now=0.0, limit=40)
    served = [r.tenant for r in window]
    # Backlogged throughput is proportional to weight: 3:1.
    assert served.count("heavy") == 30
    assert served.count("light") == 10
    # And the light tenant is not starved even early on.
    assert "light" in served[:4]


def test_window_only_takes_arrived_requests():
    scheduler = FairShareScheduler()
    scheduler.register(TenantConfig("t"))
    scheduler.admit("t", np.zeros(2), 0.0, 0)
    scheduler.admit("t", np.zeros(2), 5.0, 0)
    assert len(scheduler.take_window(now=0.0, limit=8)) == 1
    assert scheduler.earliest_arrival() == 5.0
    assert len(scheduler.take_window(now=5.0, limit=8)) == 1


def test_idle_service_advances_clock_to_next_arrival():
    svc = _service([TenantConfig("t")])
    x = np.random.default_rng(0).standard_normal(N)
    svc.submit("t", x, arrival=0.5)
    responses = svc.run()
    resp = responses[0]
    assert resp.start >= 0.5
    assert resp.latency >= 0.0


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def test_identical_requests_hit_the_cache_bitwise():
    svc = _service([TenantConfig("a"), TenantConfig("b")])
    x = np.random.default_rng(0).standard_normal(N)
    svc.submit("a", x, 0.0)
    svc.run()
    first = svc.responses[0]
    # Same bytes, other tenant: served from cache, no new launch.
    launches_before = svc.stats().launches
    svc.submit("b", x.copy(), svc.runtime.issue_time)
    svc.run()
    second = svc.responses[1]
    assert second.cache_hit and not first.cache_hit
    assert second.y.tobytes() == first.y.tobytes()
    assert svc.stats().cache.hits == 1
    assert svc.runtime.profiler.serve_cache_hits == 1


def test_input_digests_are_the_recorded_ones():
    """sha256 over dtype text, shape text and the C-contiguous bytes:
    the strings below were produced by the implementation that built a
    ``tobytes()`` copy and called ``str(dtype)`` (fb01e37)."""
    from repro.serve.cache import input_digest

    known = [
        (np.arange(8, dtype=np.float64),
         "f359c9e50849347a90ee33dfbd77a1de6b1216d2bd62e4c794fcdbc772b0ba24"),
        (np.linspace(0, 1, 5, dtype=np.float32),
         "1ec663722aba04c40e137a5d9a62fd5a51282aaea68129e9354a0f7f3b7626e9"),
        (np.arange(12, dtype=np.int64).reshape(3, 4)[:, ::2],  # strided
         "aa5c6185e02c0ad89fe86533961681dfb5c7ba52e74052cfb87a6519d7957c09"),
        (np.arange(4, dtype=">f8"),  # byte-swapped: str(dtype), not name
         "2a6446c9686b4a1a709ccddec1dd085bc0f41a1ea9744bde1ff1de2c32c43589"),
    ]
    for x, digest in known:
        assert input_digest(x) == digest


def test_each_request_is_hashed_once(monkeypatch):
    """Lookup and insert share the digest carried on the request."""
    from repro.serve import cache as cache_module

    hashed = []
    real = cache_module.input_digest
    monkeypatch.setattr(
        cache_module, "input_digest", lambda x: hashed.append(1) or real(x)
    )
    svc = _service([TenantConfig("a"), TenantConfig("b")])
    x = np.random.default_rng(4).standard_normal(N)
    svc.submit("a", x, 0.0)
    svc.submit("b", x + 1.0, 0.0)
    svc.run()
    svc.submit("b", x.copy(), 1.0)  # a hit: looked up, never inserted
    svc.run()
    assert len(hashed) == 3
    stats = svc.stats().cache
    assert (stats.hits, stats.misses, stats.inserts) == (1, 2, 2)
    assert all(r.ok for r in svc.responses.values())


def test_model_update_invalidates_cached_results():
    A0, A1 = _matrix(0), _matrix(7)
    svc = SparseService(
        A0, [TenantConfig("t")], ServiceConfig(procs=2)
    )
    x = np.random.default_rng(1).standard_normal(N)
    svc.submit("t", x, 0.0)
    svc.run()
    assert len(svc.cache) == 1
    svc.update_model(A1)
    assert len(svc.cache) == 0  # eager invalidation
    svc.submit("t", x, svc.runtime.issue_time)
    svc.run()
    fresh = svc.responses[1]
    assert not fresh.cache_hit
    np.testing.assert_allclose(fresh.y, A1 @ x, rtol=1e-9)


def test_single_bit_difference_misses_the_cache():
    svc = _service([TenantConfig("t")])
    x = np.random.default_rng(2).standard_normal(N)
    x2 = x.copy()
    x2[0] = np.nextafter(x2[0], np.inf)
    svc.submit("t", x, 0.0)
    svc.run()
    svc.submit("t", x2, svc.runtime.issue_time)
    svc.run()
    assert not svc.responses[1].cache_hit
    assert svc.stats().cache.hits == 0


# ----------------------------------------------------------------------
# Chaos / checkpoint isolation
# ----------------------------------------------------------------------
def test_chaos_tenant_runs_in_a_dedicated_runtime():
    chaos = ChaosConfig(seed=3, copy_fault_rate=0.3)
    svc = _service([TenantConfig("plain"), TenantConfig("iso", chaos=chaos)])
    assert "iso" in svc._domains and "plain" not in svc._domains
    iso_rt = svc._domains["iso"].runtime
    assert iso_rt is not svc.runtime
    rng = np.random.default_rng(4)
    xs = [rng.standard_normal(N) for _ in range(6)]
    for x in xs:
        svc.submit("plain", x, 0.0)
        svc.submit("iso", x.copy(), 0.0)
    svc.run()
    # Faults landed only in the isolated domain; the shared runtime
    # never saw an injection or a retry.
    assert sum(iso_rt.profiler.faults_injected.values()) >= 1
    assert sum(svc.runtime.profiler.faults_injected.values()) == 0
    assert svc.runtime.profiler.retries == 0
    # And the isolated tenant's recovered answers are still exact.
    A = _matrix()
    for rid, resp in svc.responses.items():
        assert resp.ok
        np.testing.assert_allclose(resp.y, A @ xs_for(rid, xs), rtol=1e-9)


def xs_for(rid, xs):
    # Requests alternate plain/iso over the same vectors.
    return xs[rid // 2]


def test_isolated_domain_resets_between_request_programs():
    chaos = ChaosConfig(seed=5, copy_fault_rate=0.0, checkpoint_every=1)
    svc = _service([TenantConfig("iso", chaos=chaos)])
    rng = np.random.default_rng(6)
    svc.submit("iso", rng.standard_normal(N), 0.0)
    svc.run()
    drt = svc._domains["iso"].runtime
    # reset_for_program ran at the program boundary: no stale
    # per-program accounting leaks into the next request.
    assert drt._launches_since_ckpt == 0
    assert not drt.fusion_log
    assert not drt.autoformat_log


# ----------------------------------------------------------------------
# Streams and backends
# ----------------------------------------------------------------------
def test_serve_streams_asyncio_matches_sequential_bitwise():
    rng = np.random.default_rng(7)
    streams = {
        "a": [(2.5e-4 * (i // 2), rng.standard_normal(N)) for i in range(6)],
        "b": [(2.5e-4 * (i // 2), rng.standard_normal(N)) for i in range(6)],
    }
    digests = {}
    for backend in ("simulated", "asyncio"):
        svc = _service(
            [TenantConfig("a"), TenantConfig("b")], backend=backend
        )
        responses = svc.serve_streams(
            {t: list(items) for t, items in streams.items()}
        )
        by_tenant = {}
        for r in sorted(responses.values(), key=lambda r: r.rid):
            by_tenant.setdefault(r.tenant, []).append(r.y.tobytes())
        digests[backend] = by_tenant
    assert digests["simulated"] == digests["asyncio"]
