"""The paper's compared systems: one stack, a scope and a preset each.

SciPy and CuPy run the same program source as Legate on one processor
with the cost profile of the real system (``RuntimeConfig.scipy()`` and
``RuntimeConfig.cupy()``); Legate runs over a scope of GPUs or sockets
with ``RuntimeConfig.legate()``, and PETSc's MPI world spans a scope.
"""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.baselines import MPISim
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit


@pytest.fixture(scope="module")
def machine():
    return summit(nodes=2)


def legate_gpu(machine, gpus, per_node=None, **overrides):
    scope = machine.scope(ProcessorKind.GPU, gpus, per_node=per_node)
    return Runtime(scope, RuntimeConfig.legate(**overrides))


def legate_cpu(machine, sockets):
    return Runtime(machine.scope(ProcessorKind.CPU_SOCKET, sockets), RuntimeConfig.legate())


def scipy(machine):
    return Runtime(machine.scope(ProcessorKind.CPU_CORE, 1), RuntimeConfig.scipy())


def cupy(machine):
    return Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.cupy())


class TestFactories:
    def test_legate_gpu(self, machine):
        rt = legate_gpu(machine, 6, data_scale=3.0)
        assert rt.num_procs == 6
        assert rt.scope.kind == ProcessorKind.GPU
        assert rt.config.name == "legate"
        assert rt.config.data_scale == 3.0

    def test_legate_gpu_per_node(self, machine):
        rt = legate_gpu(machine, 8, per_node=4)
        by_node = {}
        for p in rt.scope.processors:
            by_node[p.node] = by_node.get(p.node, 0) + 1
        assert all(v == 4 for v in by_node.values())

    def test_legate_cpu(self, machine):
        rt = legate_cpu(machine, 3)
        assert rt.num_procs == 3
        assert rt.scope.kind == ProcessorKind.CPU_SOCKET

    def test_scipy_single_core(self, machine):
        rt = scipy(machine)
        assert rt.num_procs == 1
        assert rt.scope.kind == ProcessorKind.CPU_CORE
        assert rt.config.launch_overhead < 1e-5

    def test_cupy_single_gpu(self, machine):
        rt = cupy(machine)
        assert rt.num_procs == 1
        assert rt.config.sddmm_inefficiency > 1.0
        assert rt.config.memory_pressure_slowdown > 1.0

    def test_petsc_sim(self, machine):
        sim = MPISim(machine.scope(ProcessorKind.GPU, 4))
        assert sim.size == 4

    def test_systems_run_the_same_program(self, machine):
        """The drop-in premise: identical source, different systems."""
        results = []
        for make in (
            lambda: legate_gpu(machine, 3),
            lambda: cupy(machine),
            lambda: scipy(machine),
            lambda: legate_cpu(machine, 2),
        ):
            rt = make()
            with runtime_scope(rt):
                A = sp.eye(32, format="csr") * 2.0
                x = rnp.ones(32)
                for _ in range(3):
                    x = A @ x
                results.append(x.to_numpy())
        for got in results[1:]:
            np.testing.assert_allclose(got, results[0], rtol=1e-14)

    def test_relative_speeds_ordering(self, machine):
        """On a big enough kernel: GPU > socket > core, per config."""
        times = {}
        for name, make in {
            "gpu": lambda: legate_gpu(machine, 1),
            "socket": lambda: legate_cpu(machine, 1),
            "core": lambda: scipy(machine),
        }.items():
            rt = make()
            with runtime_scope(rt):
                a = rnp.ones(500_000)
                rt.barrier()
                t0 = rt.barrier()
                for _ in range(3):
                    a = a * 1.0001
                times[name] = rt.barrier() - t0
        assert times["gpu"] < times["socket"] < times["core"]
