"""Tests for the simulated-time model: contention, pressure, scaling."""

import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import (
    Privilege,
    Requirement,
    Runtime,
    RuntimeConfig,
    TaskLaunch,
)
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind, summit
from repro.machine.model import MachineConfig


class TestChannelContention:
    def test_nic_serializes_cross_node_traffic(self):
        """All-to-all through a shared NIC takes longer than pairwise
        NVLink — the Fig. 11 GPU-vs-CPU mechanism."""
        def all_to_all_time(gpus, nodes, per_node):
            machine = summit(nodes=nodes)
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, gpus, per_node=per_node),
                RuntimeConfig.legate(launch_overhead=0.0),
            )
            with runtime_scope(rt):
                n = 4096 * gpus
                a = rnp.ones(n)
                rt.barrier()
                # Broadcast-read: every GPU pulls every other shard.
                from repro.legion.partition import Replicate

                def read_all(ctx):
                    ctx.view("inp").sum()

                rt.launch(
                    TaskLaunch(
                        "readall",
                        [
                            Requirement(
                                "inp",
                                a.store.region,
                                Replicate(a.store.region, gpus),
                                Privilege.READ,
                            )
                        ],
                        read_all,
                    )
                )
                return rt.barrier()

        same_node = all_to_all_time(4, 1, per_node=4)  # NVLink only
        cross_node = all_to_all_time(4, 4, per_node=1)  # all NIC
        assert cross_node > 2 * same_node

    def test_gpu_config_funnels_more_bytes_per_nic(self):
        """The Fig. 11 crossover mechanism: at equal processor counts,
        4 GPUs/node funnel ~1.7x the all-to-all bytes through each NIC
        that 2 CPU sockets/node do (sockets also share their memory, so
        the same-node peer costs nothing)."""
        from repro.legion.partition import Replicate

        def all_to_all(kind, per_node, procs=8):
            nodes = procs // per_node
            machine = summit(nodes=max(nodes, 2))
            rt = Runtime(
                machine.scope(kind, procs, per_node=per_node),
                RuntimeConfig.legate(launch_overhead=0.0),
            )
            with runtime_scope(rt):
                a = rnp.ones(8192 * procs)
                rt.barrier()
                rt.launch(
                    TaskLaunch(
                        "readall",
                        [
                            Requirement(
                                "inp",
                                a.store.region,
                                Replicate(a.store.region, procs),
                                Privilege.READ,
                            )
                        ],
                        lambda ctx: None,
                    )
                )
                rt.barrier()
                nic_bytes = rt.profiler.copy_bytes.get("nic", 0)
                return nic_bytes / nodes

        gpu_per_nic = all_to_all(ProcessorKind.GPU, per_node=4)
        cpu_per_nic = all_to_all(ProcessorKind.CPU_SOCKET, per_node=2)
        assert gpu_per_nic > 1.5 * cpu_per_nic


class TestMemoryPressure:
    def test_slowdown_above_threshold(self):
        machine = Machine(MachineConfig(nodes=1, gpus_per_node=1, gpu_memory=2**20))
        times = []
        for fill in (0.1, 0.95):
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, 1),
                RuntimeConfig.cupy(reserved_fb_bytes=0),
            )
            with runtime_scope(rt):
                filler = rnp.zeros(int(fill * 2**20 / 8) - 64)
                x = rnp.ones(32)
                rt.barrier()
                t0 = rt.barrier()
                for _ in range(5):
                    x = x * 2.0
                times.append(rt.barrier() - t0)
        assert times[1] > 2 * times[0]

    def test_legate_not_affected_by_default(self):
        cfg = RuntimeConfig.legate()
        assert cfg.memory_pressure_slowdown == 1.0


class TestPerRegionMemScale:
    def test_extent_override_applies(self):
        machine = summit(nodes=1)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 1),
            RuntimeConfig.legate(data_scale=1000.0),
        )
        rt.mem_scale_by_extent[77] = 2.0
        with runtime_scope(rt):
            small_scale = rnp.ones(77)  # magnified 2x, not 1000x
            rt.barrier()
            mem = rt.scope.processors[0].memory
            used = rt.instances.used_bytes(mem)
            assert used == pytest.approx(77 * 8 * 2.0, rel=0.01)


class TestClocks:
    def _runtime(self):
        return Runtime(
            summit(nodes=1).scope(ProcessorKind.GPU, 2), RuntimeConfig.legate()
        )

    def test_one_clock_per_scope_processor(self):
        rt = self._runtime()
        assert rt.issue_time == 0.0
        assert set(rt._proc_busy) == {p.uid for p in rt.scope.processors}

    def test_horizon_covers_issue_procs_and_channels(self):
        rt = self._runtime()
        rt.issue_time = 1.0
        assert rt.horizon() == 1.0
        uid = next(iter(rt._proc_busy))
        rt._proc_busy[uid] = 2.5
        assert rt.horizon() == 2.5
        assert rt.elapsed() >= 2.5


class TestProfilerEvents:
    def test_event_recording_toggle(self):
        machine = summit(nodes=1)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 2),
            RuntimeConfig.legate(profile=True),
        )
        with runtime_scope(rt):
            a = rnp.ones(64)
            b = a * 2.0
        tasks = [s for s in rt.timeline.spans if s.category == "task"]
        # The fill and the multiply fuse into one launch by default.
        assert any("multiply" in s.name for s in tasks)
        for span in rt.timeline.spans:
            assert span.finish >= span.start

    def test_task_counts_by_name(self):
        machine = summit(nodes=1)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(rt):
            A = sp.eye(32, format="csr")
            x = rnp.ones(32)
            for _ in range(3):
                x = A @ x
        spmv_key = [k for k in rt.profiler.task_counts if "y(i)=A(i,j)*x(j)" in k]
        assert spmv_key
        assert rt.profiler.task_counts[spmv_key[0]] == 3 * 2  # 3 launches x 2 shards


class TestDataScaleConsistency:
    def test_throughput_independent_of_build_size(self):
        """Two builds of the same full-scale problem at different reduced
        sizes produce similar simulated throughput (the harness's core
        soundness property)."""
        from repro.harness.experiments.fig8_spmv import banded_scipy

        def throughput(n_build):
            machine = summit(nodes=1)
            n_full = 10_000_000
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, 2),
                RuntimeConfig.legate(data_scale=n_full / n_build, comm_scale=1.0),
            )
            with runtime_scope(rt):
                A = sp.csr_matrix(banded_scipy(n_build))
                x = rnp.ones(n_build)
                for _ in range(2):
                    y = A @ x
                t0 = rt.barrier()
                for _ in range(5):
                    y = A @ x
                return 5 / (rt.barrier() - t0)

        t_small = throughput(20_000)
        t_large = throughput(80_000)
        assert t_small == pytest.approx(t_large, rel=0.05)
