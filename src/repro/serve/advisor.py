"""Serving lints: cache-defeating churn, queue pressure.

The static advisor lints *programs*; these lint *traffic*.  They read
the service's aggregated :class:`~repro.serve.service.ServeStats` and
reuse the advisor's :class:`~repro.analysis.lint.LintIssue` shape so
tooling that consumes advisor findings renders them unchanged.

* ``serve-cache-churn`` — a warm cache with a cold hit rate: requests
  are near-duplicates that hash differently (unquantized floats,
  per-request noise) or the capacity is undersized for the working
  set.  Either way the (version, input-hash) cache is being defeated.
* ``serve-queue-pressure`` — admission control is shedding load;
  capacity, weights or queue bounds need attention.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lint import LintIssue

CACHE_MIN_LOOKUPS = 20
CACHE_COLD_RATE = 0.10


def lint_serve(stats) -> List[LintIssue]:
    """Lint one service's aggregated traffic statistics."""
    issues: List[LintIssue] = []
    cache = stats.cache
    if cache.lookups >= CACHE_MIN_LOOKUPS and cache.hit_rate < CACHE_COLD_RATE:
        issues.append(
            LintIssue(
                "serve-cache-churn",
                f"result cache hit rate {cache.hit_rate:.1%} over "
                f"{cache.lookups} lookups: request inputs defeat the "
                f"(version, input-hash) key — canonicalize/quantize "
                f"request vectors or raise capacity "
                f"(currently {stats.cache_capacity})",
            )
        )
    if stats.requests_rejected:
        issues.append(
            LintIssue(
                "serve-queue-pressure",
                f"admission control rejected {stats.requests_rejected} "
                f"requests at bounded tenant queues; raise max_queue, "
                f"add capacity, or shed load upstream",
            )
        )
    return issues
