"""Run bench's workloads in-process: digest, modeled_s, p50/p99, launches.

Usage: python3 artifacts/pr41/serve_probe.py <tree> <workload> <seed> [max_batch]
(max_batch overrides ServeMixed's ServiceConfig; parent-side probe only)
"""
import os, sys
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
tree, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
import numpy as np
import workloads
cls = {c.name: c for c in vars(workloads).values() if isinstance(c, type) and getattr(c, "name", None)}[name]
w = cls(seed)
if len(sys.argv) > 4:
    from repro.serve import ServiceConfig
    mb = int(sys.argv[4])
    orig = ServiceConfig.__init__
    def init(self, *a, **k):
        orig(self, *a, **k)
        self.max_batch = mb
    ServiceConfig.__init__ = init
w.generate(); w.setup()
w.prepare()
rt = getattr(w, "rt", None)
before = rt.profiler.tasks_launched if rt is not None else None
modeled = w.repeat()
lat = w.latencies_ms()
out = dict(digest=w.digest()[:16], modeled_s=repr(modeled),
           p50=repr(float(np.percentile(lat, 50))), p99=repr(float(np.percentile(lat, 99))))
if name == "serve_mixed":
    st = w.svc.stats()
    out.update(launches=st.launches, refusals=sum(st.refusals.values()))
print(out)
