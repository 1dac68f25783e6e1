"""The plain tenant's modeled latency beside an isolated chaos tenant.

Serves the 40-request plain/iso traffic of
``tests/serve/test_issue_before_read.py::test_isolated_tenant_matches_the_reference``
(arrivals 0.25 ms apart in bursts of eight, the iso tenant mixing
float32 and float64) on a 2-GPU service, once without the iso tenant
and once beside it at each ``copy_fault_rate``, and prints the plain
tenant's median latency and whether its responses (start, finish, y
bytes) equal the alone run's.

    python3 artifacts/pr42/isolation_probe.py parent=<tree> change=.
"""

import os
import subprocess
import sys

CHILD = r'''
import numpy as np, scipy.sparse as sps
from repro.legion.chaos import ChaosConfig
from repro.serve import ServiceConfig, SparseService, TenantConfig

N = 64
rng = np.random.default_rng(5)
traffic = []
for i in range(40):
    plain = i % 2 == 0
    dtype = "float32" if not plain and rng.random() < 0.5 else "float64"
    traffic.append(("plain" if plain else "iso",
                    rng.standard_normal(N).astype(dtype), 2.5e-4 * (i // 8)))

def serve(rate):
    tenants = [TenantConfig("plain")]
    if rate is not None:
        tenants.append(TenantConfig("iso", chaos=ChaosConfig(seed=3, copy_fault_rate=rate)))
    A = sps.random(N, N, density=0.12, random_state=0, format="csr", dtype=np.float64)
    svc = SparseService(A, tenants, ServiceConfig(procs=2))
    for tenant, x, arrival in traffic:
        if rate is not None or tenant == "plain":
            svc.submit(tenant, x, arrival)
    svc.run()
    return [r for _, r in sorted(svc.responses.items()) if r.tenant == "plain"]

def key(rs):
    return [(r.start, r.finish, r.y.tobytes()) for r in rs]

alone = serve(None)
print(f"  alone     median {np.median([r.latency for r in alone]) * 1e3:.4f} ms")
for rate in (0.0, 0.3, 0.8):
    rs = serve(rate)
    print(f"  rate {rate:.1f}  median {np.median([r.latency for r in rs]) * 1e3:.4f} ms"
          f"  equal to alone: {key(rs) == key(alone)}")
'''


def main(argv):
    for arg in argv:
        name, root = arg.split("=", 1)
        env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src"),
               "OPENBLAS_NUM_THREADS": "1"}
        print(f"{name} ({root}):", flush=True)
        subprocess.run([sys.executable, "-c", CHILD], env=env, check=True)


if __name__ == "__main__":
    main(sys.argv[1:] or ["change=."])
