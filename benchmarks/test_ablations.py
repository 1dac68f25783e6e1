"""Ablations of the design choices DESIGN.md calls out.

Each ablation varies one mechanism or model parameter from §3-§4 of the
paper and measures the communication or time it buys on the Fig. 1
loop.  The mapper's coalescing and key-partition reuse are
unconditional; their trials are recorded in
``tests/legion/test_runtime_config.py``'s ``DELETED_TOGGLES``.
"""

import numpy as np
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit

N = 60_000
ITERS = 6


def banded(n, band=1):
    diags = [np.full(n - abs(k), 1.0) for k in range(-band, band + 1)]
    return sps.diags(diags, list(range(-band, band + 1))).tocsr()


def run_power_iteration(config: RuntimeConfig, band=1, n=N, iters=ITERS):
    machine = summit(nodes=1)
    rt = Runtime(machine.scope(ProcessorKind.GPU, 3), config)
    with runtime_scope(rt):
        A = sp.csr_matrix(banded(n, band))
        rnp.random.seed(0)
        x = rnp.random.rand(n)
        for _ in range(2):  # warm-up
            x = A @ x
            x /= rnp.linalg.norm(x)
        rt.barrier()
        snap = rt.profiler.snapshot()
        t0 = rt.barrier()
        for _ in range(iters):
            x = A @ x
            x /= rnp.linalg.norm(x)
        t1 = rt.barrier()
        delta = rt.profiler.since(snap)
    return t1 - t0, delta


class TestHaloWidth:
    """§3: bounding-rect images make halo volume track matrix bandwidth."""

    def test_halo_scales_with_band(self, benchmark):
        _, d1 = benchmark.pedantic(
            lambda: run_power_iteration(RuntimeConfig.legate(), band=1),
            rounds=1, iterations=1,
        )
        _, d4 = run_power_iteration(RuntimeConfig.legate(), band=4)
        halo1 = d1.copy_bytes.get("nvlink", 0)
        halo4 = d4.copy_bytes.get("nvlink", 0)
        print(f"\nband=1 halo: {halo1:,} B   band=4 halo: {halo4:,} B")
        assert halo4 == 4 * halo1


class TestTaskOverheadSweep:
    """Where small-task workloads diverge: overhead vs kernel size."""

    def test_throughput_vs_launch_overhead(self, benchmark):
        overheads = [2e-6, 2e-5, 1.3e-4, 1e-3]
        times = []
        for idx, overhead in enumerate(overheads):
            cfg = RuntimeConfig.legate(launch_overhead=overhead)
            if idx == 0:
                t, _ = benchmark.pedantic(
                    lambda: run_power_iteration(cfg, n=4000),
                    rounds=1, iterations=1,
                )
            else:
                t, _ = run_power_iteration(cfg, n=4000)
            times.append(t)
        print("\nlaunch overhead sweep (small problem):")
        for o, t in zip(overheads, times):
            print(f"  {o*1e6:7.1f} us/task -> {t*1e3:8.3f} ms")
        # Small kernels: throughput must degrade as overhead grows.
        assert times[-1] > times[0]


class TestImageExactness:
    """§3 / DESIGN.md: bounding-rect images vs exact-index images.

    On banded matrices the two coincide; on scattered access patterns
    (and the wide-band quantum Hamiltonian) exact images move less data.
    """

    def test_exact_images_on_scattered_pattern(self, benchmark):
        import scipy.sparse as sps
        from repro.machine import summit as summit_machine

        def copy_bytes(exact: bool) -> int:
            machine = summit_machine(nodes=1)
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, 3),
                RuntimeConfig.legate(exact_images=exact),
            )
            with runtime_scope(rt):
                n = 30_000
                rng = np.random.default_rng(0)
                # Rows reference two distant column clusters.
                rows = np.repeat(np.arange(n), 4)
                cols = np.concatenate([
                    rng.integers(0, 64, size=2 * n),
                    rng.integers(n - 64, n, size=2 * n),
                ])
                rng.shuffle(cols)
                ref = sps.csr_matrix(
                    (np.ones(4 * n), (rows, cols[: 4 * n])), shape=(n, n)
                )
                A = sp.csr_matrix(ref)
                x = rnp.ones(n)
                for _ in range(2):
                    x = A @ x
                    x /= rnp.linalg.norm(x)
                rt.barrier()
                snap = rt.profiler.snapshot()
                x = A @ x
                rt.barrier()
                return rt.profiler.since(snap).total_copy_bytes("nvlink")

        bounding = benchmark.pedantic(
            lambda: copy_bytes(False), rounds=1, iterations=1
        )
        exact = copy_bytes(True)
        print(f"\nscattered pattern halo: bounding {bounding:,} B, "
              f"exact {exact:,} B ({bounding / max(exact,1):.0f}x less)")
        assert exact < bounding / 10

    def test_banded_pattern_unchanged(self, benchmark):
        def copy_bytes(exact: bool) -> int:
            _, delta = run_power_iteration(
                RuntimeConfig.legate(exact_images=exact)
            )
            return delta.copy_bytes.get("nvlink", 0)

        bounding = benchmark.pedantic(
            lambda: copy_bytes(False), rounds=1, iterations=1
        )
        exact = copy_bytes(True)
        print(f"\nbanded halo: bounding {bounding:,} B, exact {exact:,} B")
        assert exact == bounding  # contiguous halos: images already exact
