"""Backend probe: one seeded serving scenario under each execution backend.

4 tenants x 24 requests, seed 0, dup_rate=0.2, dtype_mix=0.2, served by
serve_bench.run_scenario at commit 420579f (the last one with
RuntimeConfig.backend).  Run from an unpacked copy of that commit:

    mkdir -p PARENT && git archive 420579f | tar -x -C PARENT
    PYTHONPATH=PARENT/src python3 artifacts/pr27/backend_probe.py > artifacts/pr27/backend_probe.json
"""
import hashlib
import json

from repro.harness.serve_bench import build_model_versions, generate_streams, run_scenario
from repro.serve import TenantConfig

names = ["t0", "t1", "t2", "t3"]
versions = build_model_versions(seed=0)
streams = generate_streams(0, names, 24, dup_rate=0.2, dtype_mix=0.2)
tenants = [TenantConfig(n) for n in names]
rows = []
for backend in ("simulated", "sync", "asyncio"):
    out = run_scenario(versions, tenants, streams, backend=backend)
    rows.append(dict(
        backend=backend,
        served=out["served"],
        launches=out["launches"],
        batches=out["batches"],
        cache_hits=out["cache_hits"],
        p50_ms=out["p50_latency_s"] * 1e3,
        p99_ms=out["p99_latency_s"] * 1e3,
        digests_sha256=hashlib.sha256(
            json.dumps(out["digests"], sort_keys=True).encode()
        ).hexdigest(),
    ))
print(json.dumps(dict(commit="420579f", scenario=dict(
    tenants=4, requests_per_tenant=24, seed=0, dup_rate=0.2, dtype_mix=0.2),
    runs=rows), indent=1))
