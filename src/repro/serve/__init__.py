"""repro.serve — a long-lived multi-tenant serving layer.

The paper makes distributed sparse computing consumable from plain
Python; this package makes it *servable*: a long-lived service that
accepts many concurrent client requests against a shared sparse model
(e.g. MovieLens users querying a factored recommendation model), with

* admission control over bounded per-tenant queues,
* per-tenant fair-share scheduling of launch windows
  (:mod:`repro.serve.scheduler`),
* cross-request SpMV batching — compatible right-hand sides against the
  same matrix version stack into one multi-vector launch, bitwise
  identical to per-request execution (:mod:`repro.serve.batcher`),
* result caching keyed on (matrix version, input hash)
  (:mod:`repro.serve.cache`),
* per-tenant chaos/checkpoint isolation reusing the resilience
  machinery (isolated tenants run on dedicated runtimes with their own
  fault injectors and checkpoint epochs), and
* serving lints — unbatchable request mixes and cache-defeating input
  churn (:mod:`repro.serve.advisor`).

Latencies are modeled on the runtime's simulated clocks
(:mod:`repro.serve.service`).
"""

from repro.serve.advisor import lint_serve
from repro.serve.batcher import BatchKey, SpMVBatcher
from repro.serve.cache import ResultCache
from repro.serve.scheduler import FairShareScheduler, Request, TenantConfig
from repro.serve.service import (
    Response,
    ServiceConfig,
    SparseService,
    ServeStats,
)

__all__ = [
    "BatchKey",
    "FairShareScheduler",
    "Request",
    "ResultCache",
    "Response",
    "ServeStats",
    "ServiceConfig",
    "SparseService",
    "SpMVBatcher",
    "TenantConfig",
    "lint_serve",
]
