"""Unit tests for the machine model."""

import pytest

from repro.machine import (
    Channel,
    Machine,
    MemoryKind,
    ProcessorKind,
    laptop,
    reserve,
    summit,
)
from repro.machine.model import MachineConfig


class TestSummitTopology:
    def test_node_contents(self):
        m = summit(nodes=2)
        assert len(m.procs(ProcessorKind.GPU)) == 12
        assert len(m.procs(ProcessorKind.CPU_SOCKET)) == 4
        assert len(m.procs(ProcessorKind.CPU_CORE)) == 2

    def test_memories(self):
        m = summit(nodes=1)
        sysmems = [x for x in m.memories if x.kind == MemoryKind.SYSMEM]
        fbs = [x for x in m.memories if x.kind == MemoryKind.FRAMEBUFFER]
        assert len(sysmems) == 1
        assert len(fbs) == 6
        assert fbs[0].capacity == 16 * 2**30

    def test_sockets_share_sysmem(self):
        m = summit(nodes=1)
        sockets = m.procs(ProcessorKind.CPU_SOCKET)
        assert sockets[0].memory.uid == sockets[1].memory.uid

    def test_gpus_have_private_framebuffers(self):
        m = summit(nodes=1)
        gpus = m.procs(ProcessorKind.GPU)
        assert len({g.memory.uid for g in gpus}) == 6


class TestScope:
    def test_scope_count(self):
        m = summit(nodes=2)
        scope = m.scope(ProcessorKind.GPU, 8)
        assert len(scope) == 8
        assert scope.kind == ProcessorKind.GPU

    def test_scope_per_node_limit(self):
        m = summit(nodes=4)
        scope = m.scope(ProcessorKind.GPU, 16, per_node=4)
        assert len(scope) == 16
        by_node = {}
        for p in scope.processors:
            by_node[p.node] = by_node.get(p.node, 0) + 1
        assert all(v == 4 for v in by_node.values())
        assert scope.nodes == 4

    def test_scope_too_large_raises(self):
        m = summit(nodes=1)
        with pytest.raises(ValueError):
            m.scope(ProcessorKind.GPU, 7)

    def test_memories_deduplicated_for_sockets(self):
        m = summit(nodes=1)
        scope = m.scope(ProcessorKind.CPU_SOCKET, 2)
        assert len(scope.memories()) == 1


class TestChannels:
    def test_same_node_uses_nvlink(self):
        m = summit(nodes=2)
        gpus = m.procs(ProcessorKind.GPU)
        same = [g for g in gpus if g.node == 0]
        chans = m.channels_between(same[0].memory, same[1].memory)
        assert len(chans) == 1
        assert chans[0].name.startswith("nvlink")

    def test_cross_node_uses_both_nics(self):
        m = summit(nodes=2)
        gpus = m.procs(ProcessorKind.GPU)
        a = next(g for g in gpus if g.node == 0)
        b = next(g for g in gpus if g.node == 1)
        chans = m.channels_between(a.memory, b.memory)
        assert len(chans) == 2
        assert all(c.name.startswith("nic") for c in chans)

    def test_same_memory_intra_channel(self):
        m = summit(nodes=1)
        mem = m.memories[0]
        chans = m.channels_between(mem, mem)
        assert len(chans) == 1
        assert chans[0].latency == 0.0

    def test_channel_occupancy_serializes(self):
        m = summit(nodes=2)
        nic = m._nic[0]
        s1, f1 = nic.transfer(10**6, ready=0.0)
        s2, f2 = nic.transfer(10**6, ready=0.0)
        assert s2 >= f1  # second transfer waits for the first
        m.reset_channels()
        assert nic.busy_until == 0.0

    def test_a_copy_fills_a_gap_on_its_route(self):
        a, b, c, d = (Channel(n, bandwidth=1.0, latency=0.0) for n in "abcd")
        assert reserve((a, b), 0.0, 0.0, 0.0, 1.0) == (0.0, 1.0)
        # b is busy until 1: the copy waits for it, c is left idle.
        assert reserve((b, c), 0.0, 0.0, 0.0, 1.0) == (1.0, 2.0)
        assert c.gaps == [(0.0, 1.0)]
        # c's gap is idle on the whole route (c, d): the copy fills it.
        assert reserve((c, d), 0.0, 0.0, 0.0, 1.0) == (0.0, 1.0)
        assert c.gaps == [] and c.busy_until == 2.0
        assert d.busy_until == 1.0

    def test_a_gap_too_short_or_closed_is_passed_over(self):
        chan = Channel("c", bandwidth=1.0, latency=0.5)
        assert reserve((chan,), 4.0, 0.0, 0.5, 1.0) == (4.0, 5.5)
        assert chan.gaps == [(0.0, 4.0)]
        # 1.5 s fit in [0, 4) only from the issue clock 2.0 on.
        assert reserve((chan,), 0.0, 2.0, 0.5, 1.0) == (2.0, 3.5)
        assert chan.gaps == [(0.0, 2.0), (3.5, 4.0)]
        # Nothing fits any more before the tail; the clock passed the
        # first gap, which is dropped.
        assert reserve((chan,), 0.0, 3.0, 0.5, 1.0) == (5.5, 7.0)
        assert chan.gaps == [(3.5, 4.0)]

    def test_past_every_tail_the_start_is_ready_or_the_tail(self):
        """Past the tails a copy starts at max(ready, busy_until), even
        before the issue clock, and finishes at start + latency + cost
        summed in that order."""
        a, b = Channel("a", 1.0, 0.1), Channel("b", 1.0, 0.1)
        first = 0.3 + 0.2 + 0.7
        assert reserve((a, b), 0.3, 0.0, 0.2, 0.7) == (0.3, first)
        assert reserve((a, b), 0.0, 5.0, 0.2, 0.7) == (first, first + 0.2 + 0.7)
        assert a.gaps == b.gaps == []

    def test_channel_identity_is_cached(self):
        m = summit(nodes=1)
        gpus = m.procs(ProcessorKind.GPU)
        c1 = m.channels_between(gpus[0].memory, gpus[1].memory)
        c2 = m.channels_between(gpus[1].memory, gpus[0].memory)
        assert c1[0] is c2[0]


class TestKernelTime:
    def test_roofline_compute_bound(self):
        m = summit(nodes=1)
        gpu = m.procs(ProcessorKind.GPU)[0]
        t = gpu.kernel_time(flops=7.0e12, bytes_moved=0)
        assert t == pytest.approx(1.0 + gpu.kernel_overhead)

    def test_roofline_bandwidth_bound(self):
        m = summit(nodes=1)
        gpu = m.procs(ProcessorKind.GPU)[0]
        t = gpu.kernel_time(flops=1.0, bytes_moved=820e9)
        assert t == pytest.approx(1.0 + gpu.kernel_overhead)

    def test_gpu_faster_than_socket_faster_than_core(self):
        m = summit(nodes=1)
        gpu = m.procs(ProcessorKind.GPU)[0]
        sock = m.procs(ProcessorKind.CPU_SOCKET)[0]
        core = m.procs(ProcessorKind.CPU_CORE)[0]
        work = (1e9, 1e9)
        assert gpu.kernel_time(*work) < sock.kernel_time(*work)
        assert sock.kernel_time(*work) < core.kernel_time(*work)


class TestLaptop:
    def test_is_small(self):
        m = laptop()
        assert len(m.procs(ProcessorKind.GPU)) == 2
        fb = m.procs(ProcessorKind.GPU)[0].memory
        assert fb.capacity == 64 * 2**20

    def test_custom_config(self):
        m = Machine(MachineConfig(nodes=3, gpus_per_node=1))
        assert len(m.procs(ProcessorKind.GPU)) == 3
        assert m.interconnect_latency(3) == m.config.nic_latency
        assert m.interconnect_latency(1) == m.config.nvlink_latency
