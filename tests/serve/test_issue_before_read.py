"""A serving round issues every request before it reads one back.

``SparseService._execute`` plans a domain's share of the window and
issues it; ``SpMVBatcher.issue`` returns a pending result array and
``SpMVBatcher.collect`` reads it back.  The shared domain issues the
whole round inside one ``runtime_scope`` before the first read-back,
so the round's launches share the deferred window; an isolated (chaos)
domain runs one request per program.  The contract:

* **bits and timing** -- every ``Response.y`` is bitwise the answer of
  the service that read each request back before issuing the next,
  kept below as ``reference_execute``/``reference_service_execute``,
  over random mixes of dtypes, version churn and duplicates, with 1
  and 3 tenants; and ``arrival <= start <= finish``;
* **max_batch is inert** -- at ``max_batch`` 8 and 1 the responses
  (bytes, ``start``, ``finish``, ``ok``, ``error``) and
  ``ServeStats.launches`` are equal;
* **one launch per round** -- a round of ``k`` lone SpMVs adds one
  launch and ``k - 1`` fused-away launches, and all its responses
  finish at ``runtime.elapsed()``;
* **the clock** -- in a shared round nothing calls ``Runtime.barrier``
  before the last request is issued;
* **isolation** -- an isolated chaos tenant's responses (``ok``,
  ``start``, ``finish``, ``error``, bytes) equal the reference's at
  ``copy_fault_rate`` 0, 0.3 and 0.8, and the other tenant's equal
  those of a run without the chaos tenant, a fault in one isolated program
  fails that request alone, and every admitted request gets exactly
  one response;
* **launch accounting** -- ``ServeStats.launches`` is the number of
  launches the domains' runtimes ran.

Mutants each test catches: isolated domains issuing the whole round
fail the isolation tests; collecting each request before issuing the
next fails the clock test.
"""

from typing import List

import numpy as np
import pytest
import scipy.sparse as sps

from repro.analysis import check_log, set_validation_default
from repro.legion.chaos import ChaosConfig
from repro.legion.exceptions import FaultError
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit
from repro.serve import (
    Request,
    Response,
    ServiceConfig,
    SparseService,
    SpMVBatcher,
    TenantConfig,
)

N = 64


# ----------------------------------------------------------------------
# The service that read each request back before issuing the next
# ----------------------------------------------------------------------
def reference_execute(self, req, matrix) -> np.ndarray:
    """Run one request; returns its result vector, a host copy (it
    leaves the runtime at the service boundary)."""
    import repro.numeric as rnp

    return (matrix @ rnp.asarray(req.x)).to_numpy().copy()


def reference_service_execute(self, domain, requests) -> None:
    """Run one domain's share of the window, one round trip each."""
    drt = domain.runtime
    for req in self.batcher.plan(requests):
        # An isolated domain's clock may trail the service clock
        # (it only advances while its tenant is served); a request
        # starts no earlier than the service round that formed it
        # and no earlier than it arrived.
        drt.issue_time = max(
            drt.issue_time, self.runtime.issue_time, req.arrival
        )
        start = drt.issue_time
        matrix = domain.matrix_for(self, req.version)
        try:
            with runtime_scope(drt):
                y = self.batcher.execute(req, matrix)
                finish = drt.elapsed()
        except FaultError as exc:
            finish = drt.horizon()
            self.responses[req.rid] = Response(
                req.rid, req.tenant, False, None,
                req.arrival, start, finish, error=str(exc),
            )
            continue
        finally:
            if domain is not self._shared:
                # Per-tenant checkpoint isolation: each request
                # program ends at an epoch boundary, so a later
                # loss in this tenant's domain never replays into
                # another program's state.
                drt.reset_for_program()
        self.cache.put((req.version, req.digest), y)
        self.responses[req.rid] = Response(
            req.rid, req.tenant, True, y, req.arrival, start, finish,
        )


_SERVICE_EXECUTE = SparseService._execute


def reference_isolated_execute(self, domain, requests) -> None:
    """The reference in isolated domains; the shared domain runs the
    service's own rounds, so both sides read one service clock."""
    if domain is self._shared:
        return _SERVICE_EXECUTE(self, domain, requests)
    return reference_service_execute(self, domain, requests)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class _WriteOnce(dict):
    """A responses map that refuses a second response for one rid."""

    def __setitem__(self, rid, resp):
        assert rid not in self, f"request {rid} answered twice"
        super().__setitem__(rid, resp)


def _matrix(seed=0):
    return sps.random(
        N, N, density=0.12, random_state=seed, format="csr", dtype=np.float64
    )


def _traffic(seed, tenants, count):
    """Seeded (tenant, x, arrival) triples: bursts of four arrivals,
    float32/float64 mixes and repeated right-hand sides."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if out and rng.random() < 0.25:
            x = out[int(rng.integers(len(out)))][1].copy()
        else:
            dtype = "float32" if rng.random() < 0.4 else "float64"
            x = rng.standard_normal(N).astype(dtype)
        tenant = tenants[int(rng.integers(len(tenants)))]
        out.append((tenant, x, 2.5e-4 * (i // 4)))
    return out


def _serve(tenants, traffic, reference=False, churn_at=None, **cfg):
    """Serve ``traffic``; ``churn_at`` publishes model version 1 after
    that many admissions.  ``reference`` runs the read-back-per-request
    service instead; ``reference="isolated"`` only in isolated
    domains."""
    cfg.setdefault("procs", 2)
    execute = (
        reference_isolated_execute if reference == "isolated"
        else reference_service_execute
    )
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(SpMVBatcher, "execute", reference_execute)
            mp.setattr(SparseService, "_execute", execute)
        svc = SparseService(_matrix(0), tenants, ServiceConfig(**cfg))
        svc.responses = _WriteOnce()
        rids = []
        for i, (tenant, x, arrival) in enumerate(traffic):
            if i == churn_at:
                svc.update_model(_matrix(9))
            rids.append(svc.submit(tenant, x, arrival))
        svc.run()
    admitted = {rid for rid in rids if rid is not None}
    assert set(svc.responses) == admitted
    return svc


def _warm_service(**cfg):
    """A one-tenant service whose kernels and version-0/1 matrices are
    built, so a later round launches only its SpMVs."""
    svc = SparseService(
        _matrix(0),
        [TenantConfig("t")],
        ServiceConfig(procs=2, cache_capacity=0, **cfg),
    )
    rng = np.random.default_rng(0)
    for dtype in ("float64", "float32"):
        svc.submit("t", rng.standard_normal(N).astype(dtype), 0.0)
    svc.run()
    svc.update_model(_matrix(9))
    svc._shared.matrix_for(svc, 1)
    return svc


# ----------------------------------------------------------------------
# Bits and timing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tenant_count", [1, 3])
@pytest.mark.parametrize(
    "max_batch, against",
    [
        pytest.param(1, "reference", id="1"),
        pytest.param(8, "reference", id="8"),
        pytest.param(8, "max_batch=1", id="8-inert"),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_responses_are_bitwise_the_reference(
    seed, max_batch, against, tenant_count
):
    """``against="max_batch=1"`` serves the same traffic (bursts of
    co-pending float64 requests, a float32 mix, duplicates and a model
    update) at ``max_batch`` 1: field for field the same responses and
    the same launch count."""
    tenants = [f"t{i}" for i in range(tenant_count)]
    traffic = _traffic(seed, tenants, 20)
    inert = against == "max_batch=1"
    other = dict(max_batch=1) if inert else dict(reference=True, max_batch=max_batch)
    runs = [
        _serve([TenantConfig(t) for t in tenants], traffic, churn_at=10, **cfg)
        for cfg in (dict(max_batch=max_batch), other)
    ]
    change, ref = (svc.responses for svc in runs)
    assert set(change) == set(ref)
    for rid, resp in change.items():
        assert resp.ok and ref[rid].ok
        assert resp.y.dtype == ref[rid].y.dtype
        assert resp.y.tobytes() == ref[rid].y.tobytes()
        assert resp.arrival <= resp.start <= resp.finish
        if inert:
            assert (resp.start, resp.finish, resp.error) == (
                ref[rid].start, ref[rid].finish, ref[rid].error
            )
    if inert:
        assert runs[0].stats().launches == runs[1].stats().launches


@pytest.mark.parametrize("dtypes", [("float64",), ("float32",) * 3])
def test_execute_is_the_reference_round_trip(dtypes):
    """``execute`` (issue, then collect, one request) returns the bytes
    the reference round trip returns and launches as often."""
    import repro.sparse as sp

    rng = np.random.default_rng(7)
    reqs = [
        Request(i, "t", rng.standard_normal(N).astype(d), 0.0, 0)
        for i, d in enumerate(dtypes)
    ]
    outs = []
    for run in (SpMVBatcher.execute, reference_execute):
        rt = Runtime(summit(1).scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        batcher = SpMVBatcher()
        with runtime_scope(rt):
            matrix = sp.csr_matrix(_matrix(0))
            ys = [run(batcher, req, matrix) for req in batcher.plan(reqs)]
        outs.append((
            [(y.dtype, y.tobytes()) for y in ys], rt.profiler.tasks_launched,
        ))
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# One launch per round
# ----------------------------------------------------------------------
def test_a_round_of_unbatchable_singletons_is_one_launch():
    """Two versions by two dtypes: four lone SpMVs fuse into one launch
    and finish together."""
    svc = _warm_service()
    rt = svc.runtime
    rng = np.random.default_rng(1)
    rids = [
        svc.scheduler.admit(
            "t", rng.standard_normal(N).astype(dtype), 1e-3, version
        ).rid
        for version in (0, 1)
        for dtype in ("float64", "float32")
    ]
    launched, fused = rt.profiler.tasks_launched, rt.profiler.tasks_fused_away
    svc.run()
    assert rt.profiler.tasks_launched - launched == 1
    assert rt.profiler.tasks_fused_away - fused == len(rids) - 1
    finishes = {svc.responses[rid].finish for rid in rids}
    assert finishes == {rt.elapsed()}


def test_stats_launches_are_the_runtimes_launches():
    """``ServeStats.launches`` counts what the domains ran, fused
    rounds, cache hits and an isolated domain included."""
    chaos = ChaosConfig(seed=3, copy_fault_rate=0.3)
    tenants = [TenantConfig("t0"), TenantConfig("t1"), TenantConfig("iso", chaos=chaos)]
    traffic = _traffic(4, ["t0", "t1", "iso"], 24)
    svc = _serve(tenants, traffic)
    tenant, x, _ = traffic[0]
    svc.submit(tenant, x, 1.0)  # a repeat: answered from the cache
    svc.run()
    ran = sum(d.runtime.profiler.tasks_launched for d in svc._domains.values())
    assert svc.stats().launches == ran
    assert svc.stats().cache.hits >= 1


# ----------------------------------------------------------------------
# The clock
# ----------------------------------------------------------------------
def test_no_barrier_before_the_last_batch_is_issued(monkeypatch):
    svc = _warm_service()
    events: List[str] = []
    barrier, issue = Runtime.barrier, SpMVBatcher.issue

    def logged_barrier(self):
        events.append("barrier")
        return barrier(self)

    def logged_issue(self, *args):
        events.append("issue")
        return issue(self, *args)

    monkeypatch.setattr(Runtime, "barrier", logged_barrier)
    monkeypatch.setattr(SpMVBatcher, "issue", logged_issue)
    rng = np.random.default_rng(2)
    for dtype in ("float64", "float64", "float64", "float32"):
        svc.submit("t", rng.standard_normal(N).astype(dtype), 1e-3)
    svc.run()
    assert events.count("issue") == 4
    last_issue = len(events) - 1 - events[::-1].index("issue")
    assert "barrier" not in events[:last_issue]
    assert events.count("barrier") == 4  # one read-back per request


# ----------------------------------------------------------------------
# Faults and isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.8])
def test_isolated_tenant_matches_the_reference(rate):
    """Each isolated request is its own program, as in the reference:
    the chaos tenant's responses are the reference's, field for field.
    The plain tenant's responses are those of a run without the chaos
    tenant, field for field: the isolated domain models its own
    machine, so its faults and retries occupy none of the shared
    domain's GPUs and channels.

    An isolated request starts no earlier than the service clock, which
    the shared domain's rounds advance, so the shared domain runs the
    service's own rounds on both sides (``reference="isolated"``).  The
    isolated tenant mixes dtypes, four requests a round."""
    rng = np.random.default_rng(5)
    traffic = []
    for i in range(40):
        plain = i % 2 == 0
        dtype = "float32" if not plain and rng.random() < 0.5 else "float64"
        x = rng.standard_normal(N).astype(dtype)
        traffic.append(("plain" if plain else "iso", x, 2.5e-4 * (i // 8)))
    runs = []
    for reference in (False, True):
        tenants = [
            TenantConfig("plain"),
            TenantConfig(
                "iso", chaos=ChaosConfig(seed=3, copy_fault_rate=rate)
            ),
        ]
        runs.append(
            _serve(tenants, traffic, reference=reference and "isolated")
        )
    change, ref = (svc.responses for svc in runs)
    assert set(change) == set(ref)
    iso = [rid for rid, resp in ref.items() if resp.tenant == "iso"]
    assert iso
    for rid in iso:
        a, b = change[rid], ref[rid]
        assert (a.ok, a.start, a.finish, a.error) == (
            b.ok, b.start, b.finish, b.error
        )
        assert (a.y is None) == (b.y is None)
        if a.y is not None:
            assert a.y.tobytes() == b.y.tobytes()
    if rate == 0.8:
        assert any(not ref[rid].ok for rid in iso)
    alone = _serve(
        [TenantConfig("plain")], [t for t in traffic if t[0] == "plain"]
    ).responses
    beside = [change[rid] for rid in sorted(change) if rid not in iso]
    assert len(beside) == len(alone) == 20
    for a, b in zip(beside, (alone[rid] for rid in sorted(alone))):
        assert (a.ok, a.arrival, a.start, a.finish, a.error) == (
            b.ok, b.arrival, b.start, b.finish, b.error
        )
        assert a.y.tobytes() == b.y.tobytes()


def test_a_fault_fails_every_batch_of_the_shared_round(monkeypatch):
    """A fault raised while a round issues fails every request of the
    round, the ones planned after it included, once each."""
    svc = _warm_service()
    svc.responses = _WriteOnce()
    issue = SpMVBatcher.issue
    calls = []

    def failing_issue(self, req, *args):
        calls.append(req)
        if len(calls) == 2:
            raise FaultError("injected")
        return issue(self, req, *args)

    monkeypatch.setattr(SpMVBatcher, "issue", failing_issue)
    rng = np.random.default_rng(3)
    rids = [
        svc.submit("t", rng.standard_normal(N), 1e-3) for _ in range(4)
    ]
    svc.run()
    assert len(calls) == 2
    for rid in rids:
        resp = svc.responses[rid]
        assert not resp.ok and resp.error == "injected"
        assert resp.arrival <= resp.start <= resp.finish


def test_a_fault_in_an_isolated_program_fails_only_its_request(monkeypatch):
    """An isolated domain runs one request per program: a fault raised
    while one request issues fails that request alone, and its
    co-pending float64 requests from the same tenant are served."""
    svc = SparseService(
        _matrix(0),
        [TenantConfig("iso", chaos=ChaosConfig(seed=3))],
        ServiceConfig(procs=2, cache_capacity=0),
    )
    svc.responses = _WriteOnce()
    issue = SpMVBatcher.issue
    calls = []

    def failing_issue(self, req, *args):
        calls.append(req)
        if len(calls) == 1:
            raise FaultError("injected")
        return issue(self, req, *args)

    monkeypatch.setattr(SpMVBatcher, "issue", failing_issue)
    rng = np.random.default_rng(8)
    xs = [rng.standard_normal(N) for _ in range(4)]
    rids = [svc.submit("iso", x, 1e-3) for x in xs]
    svc.run()
    first, *rest = (svc.responses[rid] for rid in rids)
    assert not first.ok and first.error == "injected" and first.y is None
    assert all(resp.ok for resp in rest)
    for resp, x in zip(rest, xs[1:]):
        np.testing.assert_allclose(resp.y, _matrix(0) @ x, rtol=1e-12)


def test_validated_run_is_checker_clean():
    """The service's runtimes take the process validation default."""
    chaos = ChaosConfig(seed=3, copy_fault_rate=0.3)
    tenants = [TenantConfig("t0"), TenantConfig("t1"), TenantConfig("iso", chaos=chaos)]
    previous = set_validation_default(True)
    try:
        svc = _serve(
            tenants, _traffic(6, ["t0", "t1", "iso"], 24), churn_at=12
        )
    finally:
        set_validation_default(previous)
    for domain in svc._domains.values():
        log = domain.runtime.event_log
        assert log is not None and len(log) > 0
        assert check_log(log) == []
