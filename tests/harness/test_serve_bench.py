"""Serve bench harness: load-gen determinism and scenario comparisons
(caching, chaos isolation, version churn) at reduced sizes."""

import numpy as np
import scipy.sparse as sps

from tests.harness import serve_bench
from tests.harness.serve_bench import (
    SERVE_ITEMS,
    build_model_versions,
    generate_streams,
    run_scenario,
)
from repro.legion.chaos import ChaosConfig
from repro.serve import TenantConfig


def _tiny_versions(n=2):
    return [
        sps.random(
            48, 48, density=0.2, random_state=s, format="csr",
            dtype=np.float64,
        )
        for s in range(n)
    ]


def test_load_generator_is_seed_deterministic():
    a = generate_streams(7, ["t0", "t1"], 8, n=16, dup_rate=0.3, dtype_mix=0.2)
    b = generate_streams(7, ["t0", "t1"], 8, n=16, dup_rate=0.3, dtype_mix=0.2)
    assert list(a) == list(b)
    for tenant in a:
        for (ta, xa), (tb, xb) in zip(a[tenant], b[tenant]):
            assert ta == tb
            assert xa.tobytes() == xb.tobytes()
    c = generate_streams(8, ["t0", "t1"], 8, n=16, dup_rate=0.3, dtype_mix=0.2)
    assert any(
        xa.tobytes() != xc.tobytes()
        for (_, xa), (_, xc) in zip(a["t0"], c["t0"])
    )


def test_load_generator_bursts_share_arrival_instants():
    streams = generate_streams(0, ["t"], 8, n=16)
    arrivals = [a for a, _ in streams["t"]]
    assert arrivals == sorted(arrivals)
    assert len(set(arrivals)) == 2  # 8 requests in bursts of 4
    assert arrivals[0] == 0.0 and arrivals[-1] > 0.0


def test_run_scenario_metrics_and_digest_stability():
    versions = _tiny_versions()
    tenants = [TenantConfig("t0"), TenantConfig("t1")]
    streams = generate_streams(1, ["t0", "t1"], 8, n=48)
    rec = run_scenario(versions, tenants, streams)
    assert rec["requests"] == 16
    assert rec["served"] == 16 and rec["failed"] == 0
    assert rec["throughput_rps"] > 0
    assert 0 < rec["p50_latency_s"] <= rec["p99_latency_s"]
    assert rec["launches"] >= 1
    assert set(rec["digests"]) == {f"t{i}:{j}" for i in range(2) for j in range(8)}
    # Same seed, fresh service: identical bits end to end.
    rec2 = run_scenario(versions, tenants, generate_streams(1, ["t0", "t1"], 8, n=48))
    assert rec2["digests"] == rec["digests"]


def test_scaling_over_three_tenant_counts_is_non_degenerate():
    versions = _tiny_versions()
    for count in (2, 3, 4):
        names = [f"t{i}" for i in range(count)]
        streams = generate_streams(count, names, 8, n=48, dup_rate=0.2)
        rec = run_scenario(versions, [TenantConfig(n) for n in names], streams)
        assert rec["served"] == 8 * count and rec["failed"] == 0
        assert rec["throughput_rps"] > 0 and rec["p99_latency_s"] > 0


def test_duplicate_heavy_traffic_hits_the_cache_bitwise():
    versions = _tiny_versions()
    tenants = [TenantConfig("t0"), TenantConfig("t1")]
    streams = generate_streams(4, ["t0", "t1"], 8, n=48, dup_rate=0.6)
    cached = run_scenario(versions, tenants, streams)
    uncached = run_scenario(versions, tenants, streams, cache_capacity=0)
    assert cached["cache_hits"] >= 1 and uncached["cache_hits"] == 0
    assert cached["digests"] == uncached["digests"]


def test_chaos_tenant_leaves_other_tenants_unperturbed():
    """Faults and retries stay in the chaos tenant's dedicated runtime
    and machine: everyone else gets the bits and the finish times of a
    run without that tenant at all."""
    versions = _tiny_versions()
    plain = [TenantConfig("t0"), TenantConfig("t1")]
    chaotic = TenantConfig(
        "chaotic", chaos=ChaosConfig(seed=7, copy_fault_rate=0.2)
    )
    streams = generate_streams(5, ["t0", "t1", "chaotic"], 8, n=48)
    # A round holds a whole burst of all three tenants, so the fair-share
    # scheduler gives the plain tenants the same rounds on both sides.
    with_chaos = run_scenario(versions, plain + [chaotic], streams, window=12)
    without = run_scenario(
        versions, plain, {k: v for k, v in streams.items() if k != "chaotic"},
        window=12,
    )
    assert sum(with_chaos["isolated_faults"]["chaotic"].values()) >= 1
    assert with_chaos["shared_faults"] == {}
    for field in ("digests", "finish"):
        assert without[field] == {
            key: v for key, v in with_chaos[field].items()
            if not key.startswith("chaotic:")
        }


def test_version_churn_scenario_pins_versions():
    versions = _tiny_versions()
    tenants = [TenantConfig("t0"), TenantConfig("t1")]
    streams = generate_streams(3, ["t0", "t1"], 8, n=48)
    rec = run_scenario(versions, tenants, streams, update_after=8)
    assert rec["served"] == 16 and rec["failed"] == 0
    # Requests admitted after the update computed against version 1:
    # digests differ from an update-free run for the later half.
    base = run_scenario(versions, tenants, streams)
    assert rec["digests"] != base["digests"]
    assert any(
        rec["digests"][k] == base["digests"][k] for k in rec["digests"]
    )


def test_model_versions_are_training_epochs():
    versions = build_model_versions(seed=0, n_versions=2)
    assert len(versions) == 2
    v0, v1 = versions
    assert v0.shape == v1.shape == (serve_bench.SERVE_USERS, SERVE_ITEMS)
    assert v0.nnz == v1.nnz  # same observed pattern, retrained values
    assert v0.data.tobytes() != v1.data.tobytes()
