"""repro.serve — a long-lived multi-tenant serving layer.

The paper makes distributed sparse computing consumable from plain
Python; this package makes it *servable*: a long-lived service that
accepts many concurrent client requests against a shared sparse model
(e.g. MovieLens users querying a factored recommendation model), with

* admission control over bounded per-tenant queues,
* per-tenant fair-share scheduling of launch windows
  (:mod:`repro.serve.scheduler`),
* one SpMV launch per request, a round's launches sharing the
  deferred window so that they fuse (:mod:`repro.serve.batcher`),
* result caching keyed on (matrix version, input hash)
  (:mod:`repro.serve.cache`),
* per-tenant chaos/checkpoint isolation reusing the resilience
  machinery (isolated tenants run on dedicated runtimes over their own
  modeled machines, with their own fault injectors and checkpoint
  epochs), and
* aggregated traffic statistics (:meth:`SparseService.stats`): cache
  hit rate, admissions and rejections per tenant.

Latencies are modeled on the runtime's simulated clocks
(:mod:`repro.serve.service`).
"""

from repro.serve.batcher import SpMVBatcher
from repro.serve.cache import ResultCache
from repro.serve.scheduler import FairShareScheduler, Request, TenantConfig
from repro.serve.service import (
    Response,
    ServiceConfig,
    SparseService,
    ServeStats,
)

__all__ = [
    "FairShareScheduler",
    "Request",
    "ResultCache",
    "Response",
    "ServeStats",
    "ServiceConfig",
    "SparseService",
    "SpMVBatcher",
    "TenantConfig",
]
