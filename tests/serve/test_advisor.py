"""Serving lints over aggregated traffic statistics."""

from repro.serve.advisor import lint_serve
from repro.serve.cache import CacheStats
from repro.serve.service import ServeStats


def _stats(**overrides):
    stats = ServeStats(cache_capacity=256)
    for key, value in overrides.items():
        setattr(stats, key, value)
    return stats


def _codes(stats):
    return [issue.code for issue in lint_serve(stats)]


def test_healthy_traffic_produces_no_lints():
    stats = _stats(
        launches=10,
        cache=CacheStats(hits=30, misses=10),
    )
    assert _codes(stats) == []


def test_cold_cache_lint_requires_warmup_lookups():
    cold = _stats(cache=CacheStats(hits=1, misses=99))
    assert _codes(cold) == ["serve-cache-churn"]
    # Too few lookups to judge: stay quiet.
    young = _stats(cache=CacheStats(hits=0, misses=5))
    assert _codes(young) == []


def test_queue_pressure_lint_on_rejections():
    stats = _stats(requests_rejected=3)
    assert _codes(stats) == ["serve-queue-pressure"]
