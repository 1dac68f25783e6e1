import numpy as np
import pytest
import scipy.sparse as sps

from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture(params=[1, 2], ids=["p1", "p2"])
def rt(request):
    """Run every sparse test on 1 and 2 simulated GPUs."""
    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, request.param), RuntimeConfig.legate()
    )
    with runtime_scope(runtime):
        yield runtime


def random_scipy_csr(n, m, density=0.2, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    mat = sps.random(n, m, density=density, random_state=rng, format="csr")
    mat.sum_duplicates()
    mat.sort_indices()
    if dtype == np.complex128:
        mat = mat.astype(np.complex128)
        mat.data = mat.data * (1 + 0.5j)
    return mat


def tiling_blocksize(shape):
    """The largest BSR (R, C) with R, C <= 3 that tiles ``shape``."""
    return tuple(next(b for b in (3, 2, 1) if n % b == 0) for n in shape)
