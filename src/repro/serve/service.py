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
4. **launching** — each remaining request issues one SpMV
   (:mod:`repro.serve.batcher`); the shared domain issues every
   request of the round before it reads one back, so the round's
   launches share the deferred window and fuse;
5. **isolation** — tenants with a chaos config run on *dedicated*
   runtimes over their own modeled machines, with their own fault
   injectors and checkpoint epochs (:meth:`Runtime.reset_for_program`
   at request-program boundaries), so injected faults and recovery
   stalls change neither the bits nor the timing of other tenants.

Time is modeled: request arrivals, queue waits, launch overheads and
kernel times all live on the runtime's virtual clocks, so reported
latency percentiles are *modeled* latencies — measured claims, same as
the paper figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.legion.exceptions import FaultError
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit
from repro.serve.batcher import SpMVBatcher
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.scheduler import FairShareScheduler, Request, TenantConfig


@dataclass
class ServiceConfig:
    """Service-wide knobs (tenant contracts live in TenantConfig)."""

    procs: int = 2
    nodes: int = 1
    window: int = 8  # requests per scheduling round
    # Read by nothing: bench/workloads.py still passes max_batch=8.
    # ROADMAP item 2(f) can delete it with that argument.
    max_batch: int = 8
    cache_capacity: int = 256


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
    cache_hit: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class ServeStats:
    """Aggregated traffic statistics."""

    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_served: int = 0
    requests_failed: int = 0
    launches: int = 0  # launches the runtimes ran; a fused group is one
    # Always empty: bench/trace.py sums it as serve.batcher.refusals.
    # ROADMAP item 2(f) can delete it with that reader.
    refusals: Dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    cache_capacity: int = 0
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)


class _Domain:
    """One execution context: a runtime plus per-version matrices.

    The shared domain serves every non-isolated tenant; each isolated
    tenant gets its own domain (own runtime → own modeled machine,
    chaos injector, checkpoint epochs, clocks and instances).
    """

    def __init__(self, name: str, runtime: Runtime):
        self.name = name
        self.runtime = runtime
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
        self.batcher = SpMVBatcher()
        self.responses: Dict[int, Response] = {}
        self.version = 0
        self._launches = 0  # ServeStats.launches
        self._host_versions: Dict[int, Any] = {0: host_matrix}
        self._domains: Dict[str, _Domain] = {}
        shared_rt = self._make_runtime(chaos=None)
        self._shared = _Domain("shared", shared_rt)
        self._domains["shared"] = self._shared
        for tenant in tenants:
            self.scheduler.register(tenant)
            if tenant.isolated:
                rt = self._make_runtime(chaos=tenant.chaos)
                self._domains[tenant.name] = _Domain(tenant.name, rt)
        self._tenant_configs = {t.name: t for t in tenants}

    def _make_runtime(self, chaos) -> Runtime:
        # Every domain models its own machine: an isolated tenant's
        # shards, retries and recovery occupy GPUs and channels that no
        # other domain runs on.
        machine = summit(nodes=self.config.nodes)
        return Runtime(
            machine.scope(ProcessorKind.GPU, self.config.procs),
            RuntimeConfig.legate(chaos=chaos),
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
        """Drain every queue; returns the responses."""
        self._drain()
        return self.responses

    def _drain(self) -> None:
        while self.scheduler.pending:
            if not self._run_window():
                break

    def serve_streams(
        self, streams: Dict[str, List[Tuple[float, np.ndarray]]]
    ) -> Dict[int, Response]:
        """Serve per-tenant request streams.

        Every request is admitted in arrival order (ties keep the
        ``streams`` order), then the queues drain.
        """
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
        """Run one domain's share of the window.

        The shared domain runs the whole round as one program.  An
        isolated domain runs one request per program, and resets at
        every program boundary: a permanent fault fails one request,
        not the round.
        """
        drt = domain.runtime
        before = drt.profiler.tasks_launched
        requests = self.batcher.plan(requests)
        if domain is self._shared:
            self._round(domain, requests)
        else:
            for req in requests:
                try:
                    self._round(domain, [req])
                finally:
                    # Per-tenant checkpoint isolation: each request
                    # program ends at an epoch boundary, so a later
                    # loss in this tenant's domain never replays into
                    # another program's state.
                    drt.reset_for_program()
        self._launches += drt.profiler.tasks_launched - before

    def _round(self, domain: _Domain, requests: List[Request]) -> None:
        """Issue every request as one program, then read them back.

        The launches share the domain's deferred window, so independent
        ones fuse.  Every response finishes at the one ``elapsed()``
        read after the last read-back; a ``FaultError`` fails every
        request of the program.
        """
        drt = domain.runtime
        starts: List[float] = []
        try:
            with runtime_scope(drt):
                pending = []
                for req in requests:
                    # An isolated domain's clock may trail the service
                    # clock (it only advances while its tenant is
                    # served); a request starts no earlier than the
                    # service round that formed it and no earlier than
                    # it arrived.
                    drt.issue_time = max(
                        drt.issue_time, self.runtime.issue_time, req.arrival
                    )
                    starts.append(drt.issue_time)
                    matrix = domain.matrix_for(self, req.version)
                    pending.append(self.batcher.issue(req, matrix))
                ys = [self.batcher.collect(y) for y in pending]
                finish = drt.elapsed()
        except FaultError as exc:
            finish = drt.horizon()
            for i, req in enumerate(requests):
                start = starts[i] if i < len(starts) else finish
                self.responses[req.rid] = Response(
                    req.rid, req.tenant, False, None,
                    req.arrival, start, finish, error=str(exc),
                )
            return
        for req, start, y in zip(requests, starts, ys):
            self.cache.put((req.version, req.digest), y)
            self.responses[req.rid] = Response(
                req.rid, req.tenant, True, y, req.arrival, start, finish,
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        """Aggregate scheduler/cache counters for reporting."""
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
        stats.launches = self._launches
        return stats
