"""The long-lived multi-tenant service.

One :class:`SparseService` owns a shared model (a sparse matrix,
optionally re-trained over time — every update bumps the *matrix
version*) and serves SpMV requests from many tenants:

1. **admission** — :meth:`submit` pins the current matrix version and
   enqueues onto the tenant's bounded queue (or rejects: load
   shedding);
2. **scheduling** — each round, the fair-share scheduler forms a launch
   window from arrived requests (:mod:`repro.serve.scheduler`);
3. **caching** — requests whose (version, input hash) was served
   before answer immediately, no launch
   (:mod:`repro.serve.cache`);
4. **batching** — remaining requests stack into multi-RHS launches
   where legal (:mod:`repro.serve.batcher`), bitwise identical to
   per-request execution;
5. **isolation** — tenants with a chaos config run on *dedicated*
   runtimes with their own fault injectors and checkpoint epochs
   (:meth:`Runtime.reset_for_program` at request-program boundaries),
   so injected faults and recovery stalls never touch other tenants.

Time is modeled: request arrivals, queue waits, launch overheads and
kernel times all live on the runtime's virtual clocks, so reported
latency percentiles are *modeled* latencies — measured claims, same as
the paper figures.  How client programs are *driven* (sequentially or
interleaved on an asyncio loop) is the execution backend's choice and
never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.legion.backend import AsyncioBackend
from repro.legion.exceptions import FaultError
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit
from repro.serve.advisor import lint_serve
from repro.serve.batcher import SpMVBatcher
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.scheduler import FairShareScheduler, Request, TenantConfig


@dataclass
class ServiceConfig:
    """Service-wide knobs (tenant contracts live in TenantConfig)."""

    procs: int = 2
    nodes: int = 1
    window: int = 8  # requests per scheduling round
    max_batch: int = 8  # stacked RHS per launch; 1 disables batching
    cache_capacity: int = 256
    backend: str = "simulated"  # simulated | sync | asyncio
    validate: bool = False
    profile: bool = False


@dataclass
class Response:
    """One served request, with its modeled timing."""

    rid: int
    tenant: str
    ok: bool
    y: Optional[np.ndarray]
    arrival: float
    start: float
    finish: float
    batch_width: int = 1
    cache_hit: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class ServeStats:
    """Aggregated traffic statistics (the advisor lints read these)."""

    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_served: int = 0
    requests_failed: int = 0
    launches: int = 0
    batches: int = 0
    batched_requests: int = 0
    refusals: Dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    cache_capacity: int = 0
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)


class _Domain:
    """One execution context: a runtime plus per-version matrices.

    The shared domain serves every non-isolated tenant; each isolated
    tenant gets its own domain (own runtime → own chaos injector,
    checkpoint epochs, clocks and instances).
    """

    def __init__(self, name: str, runtime: Runtime, max_batch: int):
        self.name = name
        self.runtime = runtime
        self.batcher = SpMVBatcher(max_batch=max_batch)
        self.matrices: Dict[int, Any] = {}  # version -> csr_matrix

    def matrix_for(self, service: "SparseService", version: int):
        """The domain's csr build of one model version (lazy)."""
        matrix = self.matrices.get(version)
        if matrix is None:
            import repro.sparse as sp

            with runtime_scope(self.runtime):
                matrix = sp.csr_matrix(service._host_versions[version])
            self.matrices[version] = matrix
        return matrix


class SparseService:
    """A long-lived server for SpMV requests against a shared model."""

    def __init__(
        self,
        host_matrix: Any,
        tenants: Sequence[TenantConfig],
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config or ServiceConfig()
        self.scheduler = FairShareScheduler()
        self.cache = ResultCache(capacity=self.config.cache_capacity)
        self.responses: Dict[int, Response] = {}
        self.version = 0
        self._host_versions: Dict[int, Any] = {0: host_matrix}
        self._machine = summit(nodes=self.config.nodes)
        self._domains: Dict[str, _Domain] = {}
        shared_rt = self._make_runtime(chaos=None)
        self._shared = _Domain("shared", shared_rt, self.config.max_batch)
        self._domains["shared"] = self._shared
        for tenant in tenants:
            self.scheduler.register(tenant)
            if tenant.isolated:
                rt = self._make_runtime(chaos=tenant.chaos)
                self._domains[tenant.name] = _Domain(
                    tenant.name, rt, self.config.max_batch
                )
        self._tenant_configs = {t.name: t for t in tenants}
        self._open_streams = 0

    def _make_runtime(self, chaos) -> Runtime:
        return Runtime(
            self._machine.scope(ProcessorKind.GPU, self.config.procs),
            RuntimeConfig.legate(
                chaos=chaos,
                validate=self.config.validate,
                profile=self.config.profile,
                backend=self.config.backend,
            ),
        )

    @property
    def runtime(self) -> Runtime:
        """The shared domain's runtime (the service clock)."""
        return self._shared.runtime

    def _domain_for(self, tenant: str) -> _Domain:
        return self._domains.get(tenant, self._shared)

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def update_model(self, host_matrix: Any) -> int:
        """Publish a new model version; returns the version number.

        Already-admitted requests keep their pinned version (the
        per-version matrix builds stay addressable), new admissions see
        the new version, and cache entries for older versions are
        eagerly invalidated.
        """
        self.version += 1
        self._host_versions[self.version] = host_matrix
        self.cache.invalidate_before(self.version)
        return self.version

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self, tenant: str, x: np.ndarray, arrival: float
    ) -> Optional[int]:
        """Admit a request; returns its rid, or None when shed."""
        req = self.scheduler.admit(
            tenant, np.asarray(x), arrival, self.version
        )
        if req is None:
            self.runtime.profiler.record_serve_rejection()
            return None
        return req.rid

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, Response]:
        """Drain every queue through the execution backend; responses."""
        self.runtime.backend.run_programs([self._drain])
        return self.responses

    def _drain(self) -> None:
        while self.scheduler.pending:
            if not self._run_window():
                break

    def serve_streams(
        self, streams: Dict[str, List[Tuple[float, np.ndarray]]]
    ) -> Dict[int, Response]:
        """Serve per-tenant request streams.

        Under the asyncio backend each tenant is a client coroutine
        submitting its stream concurrently while a consumer coroutine
        drains windows — the multi-client serving shape.  Under the
        sequential backends all requests are admitted in arrival order
        and drained.  Results are bitwise-identical either way (window
        composition may differ; batching never changes bits).
        """
        backend = self.runtime.backend
        if isinstance(backend, AsyncioBackend):
            self._open_streams = len(streams)

            def producer(tenant, items):
                async def _produce():
                    for arrival, x in items:
                        self.submit(tenant, x, arrival)
                        await backend.checkpoint_yield()
                    self._open_streams -= 1

                return _produce

            async def _consume():
                while self._open_streams or self.scheduler.pending:
                    self._run_window()
                    await backend.checkpoint_yield()

            backend.run_programs(
                [_consume] + [producer(t, i) for t, i in streams.items()]
            )
            return self.responses
        ordered = sorted(
            (
                (arrival, tenant, x)
                for tenant, items in streams.items()
                for arrival, x in items
            ),
            key=lambda item: item[0],
        )
        for arrival, tenant, x in ordered:
            self.submit(tenant, x, arrival)
        return self.run()

    def _run_window(self) -> bool:
        """One scheduling round; False when nothing could progress."""
        rt = self.runtime
        head = self.scheduler.earliest_arrival()
        if head is None:
            return False
        if head > rt.issue_time:
            # Idle: the service sleeps until the next arrival.
            rt.issue_time = head
        now = rt.issue_time
        window = self.scheduler.take_window(now, self.config.window)
        if not window:
            return False
        by_domain: Dict[str, List[Request]] = {}
        for req in window:
            key = self.cache.key(req.version, req.x)
            req.digest = key[1]
            cached = self.cache.get(key)
            rt.profiler.record_serve_cache(cached is not None)
            if cached is not None:
                # Served straight from cache: no launch, the request
                # completes at the moment the window formed.
                self.responses[req.rid] = Response(
                    req.rid, req.tenant, True, cached.copy(),
                    req.arrival, now, max(now, req.arrival),
                    cache_hit=True,
                )
                continue
            domain = self._domain_for(req.tenant)
            by_domain.setdefault(domain.name, []).append(req)
        for name, reqs in by_domain.items():
            self._execute(self._domains[name], reqs)
        return True

    def _execute(self, domain: _Domain, requests: List[Request]) -> None:
        """Plan and run one domain's share of the window."""
        drt = domain.runtime
        for batch in domain.batcher.plan(requests):
            # An isolated domain's clock may trail the service clock
            # (it only advances while its tenant is served); a batch
            # starts no earlier than the service round that formed it
            # and no earlier than its members arrived.
            drt.issue_time = max(
                drt.issue_time,
                self.runtime.issue_time,
                max(r.arrival for r in batch.requests),
            )
            start = drt.issue_time
            matrix = domain.matrix_for(self, batch.key.matrix_version)
            try:
                with runtime_scope(drt):
                    results = domain.batcher.execute(batch, matrix, drt)
                    finish = drt.elapsed()
            except FaultError as exc:
                finish = drt.backend.horizon(drt.machine)
                for req in batch.requests:
                    self.responses[req.rid] = Response(
                        req.rid, req.tenant, False, None,
                        req.arrival, start, finish,
                        batch_width=batch.width, error=str(exc),
                    )
                continue
            finally:
                if domain is not self._shared:
                    # Per-tenant checkpoint isolation: each request
                    # program ends at an epoch boundary, so a later
                    # loss in this tenant's domain never replays into
                    # another program's state.
                    drt.reset_for_program()
            for req, y in results:
                self.cache.put((req.version, req.digest), y)
                self.responses[req.rid] = Response(
                    req.rid, req.tenant, True, y,
                    req.arrival, start, finish,
                    batch_width=batch.width,
                )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        """Aggregate scheduler/batcher/cache counters for reporting."""
        stats = ServeStats(
            cache=self.cache.stats, cache_capacity=self.cache.capacity
        )
        for name in self.scheduler.tenants:
            state = self.scheduler.tenant(name)
            stats.requests_admitted += state.admitted
            stats.requests_rejected += state.rejected
            stats.per_tenant[name] = {
                "admitted": state.admitted,
                "rejected": state.rejected,
                "served": state.served,
            }
        for resp in self.responses.values():
            if resp.ok:
                stats.requests_served += 1
            else:
                stats.requests_failed += 1
        for domain in self._domains.values():
            batcher = domain.batcher
            stats.batches += batcher.batches_executed
            stats.batched_requests += batcher.requests_batched
            for reason, count in batcher.refusals.items():
                stats.refusals[reason] = (
                    stats.refusals.get(reason, 0) + count
                )
        # Launches = batched launches + singleton launches (served
        # requests that were neither cached nor batched).
        singletons = (
            stats.requests_served
            + stats.requests_failed
            - stats.batched_requests
            - self.cache.stats.hits
        )
        stats.launches = stats.batches + max(singletons, 0)
        return stats

    def advise(self):
        """Serving lints over the aggregated stats (see serve.advisor)."""
        return lint_serve(self.stats())
