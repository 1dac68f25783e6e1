"""The numbers report.py's "Beyond the paper" notes cite, for one tree.

    python3 artifacts/pr47/notes_probe.py <tree>     # about 2 min

Fig. 10's single-GPU point (`fig10_gmg._legate_gmg`, 1 GPU) under the
CuPy preset and the four Legate configurations the Fig. 10 note
compares, and Fig. 9's Legate-GPU point (`fig9_cg._legate_cg`) at 1 and
192 GPUs under `paper_legate` and `RuntimeConfig.legate()`, each in
iterations per modeled second.  One BLAS thread, as `bench/` pins it.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import functools  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))

from repro.harness.config import paper_legate  # noqa: E402
from repro.harness.experiments import fig9_cg, fig10_gmg  # noqa: E402
from repro.legion.runtime import RuntimeConfig  # noqa: E402
from repro.machine import ProcessorKind, summit  # noqa: E402

GPU = ProcessorKind.GPU
CONFIGS = {
    "paper_legate": paper_legate,
    "legate(trace_replay_fraction=1.0)": functools.partial(
        RuntimeConfig.legate, trace_replay_fraction=1.0
    ),
    "paper_legate(trace_replay_fraction=0.15)": functools.partial(
        paper_legate, trace_replay_fraction=0.15
    ),
    "legate()": RuntimeConfig.legate,
}

machine = summit(nodes=1)
cupy = fig10_gmg._legate_gmg(machine, GPU, 1, fig10_gmg.PER_GPU_N, RuntimeConfig.cupy)
print(f"fig10 1 GPU cupy: {cupy:.4g} it/s")
for name, factory in CONFIGS.items():
    legate = fig10_gmg._legate_gmg(machine, GPU, 1, fig10_gmg.PER_GPU_N, factory)
    print(f"fig10 1 GPU {name}: {legate:.4g} it/s  CuPy/Legate {cupy / legate:.3f}")
for gpus in (1, 192):
    machine = summit(nodes=max(1, gpus // 6))
    for name in ("paper_legate", "legate()"):
        rate = fig9_cg._legate_cg(
            machine, GPU, gpus, gpus * fig9_cg.PER_GPU_N, CONFIGS[name]
        )
        print(f"fig9 {gpus} GPUs {name}: {rate:.4g} it/s")
