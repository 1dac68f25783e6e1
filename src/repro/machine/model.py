"""Parametric machine model with a Summit-like factory.

Processors carry the rates that matter for the paper's experiments —
double-precision throughput, attainable memory bandwidth and per-kernel
launch overhead — and memories carry capacities so that the runtime can
account for out-of-memory conditions (Fig. 11's 64-GPU point, Fig. 12's
CuPy failures).  Channels model bandwidth, latency and occupancy; the
per-node NIC is a single shared channel so that all-to-all traffic
contends for injection bandwidth, which is what degrades the quantum
simulation's weak scaling in the paper.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple


class ProcessorKind(enum.Enum):
    """Processor varieties of the machine model."""
    CPU_SOCKET = "cpu-socket"  # a whole multi-core socket (Legate-CPU unit)
    CPU_CORE = "cpu-core"  # one core (single-threaded SciPy baseline)
    GPU = "gpu"


# Legate Core's mapper partitions a store over at most
# ceil(volume / min_chunk) processors: LEGATE_MIN_GPU_CHUNK and
# LEGATE_MIN_CPU_CHUNK, in elements.  Runtime.colors_for applies it to
# the modeled volume of a region that opts in (Runtime.narrow).
MIN_CHUNK: Dict[ProcessorKind, int] = {
    ProcessorKind.GPU: 2**20,
    ProcessorKind.CPU_SOCKET: 2**14,
    ProcessorKind.CPU_CORE: 2**14,
}


class MemoryKind(enum.Enum):
    """Memory varieties (system memory, GPU framebuffer)."""
    SYSMEM = "sysmem"
    FRAMEBUFFER = "framebuffer"


@dataclass(frozen=True)
class Memory:
    """One memory with a capacity, attached to a node."""
    uid: int
    kind: MemoryKind
    node: int
    capacity: int  # bytes


@dataclass(frozen=True)
class Processor:
    """One processor with roofline rates and launch overhead."""
    uid: int
    kind: ProcessorKind
    node: int
    memory: Memory
    flops: float  # double-precision FLOP/s
    mem_bandwidth: float  # bytes/s attainable
    kernel_overhead: float  # seconds per kernel launch

    def kernel_time(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution time for a kernel on this processor."""
        compute = flops / self.flops if self.flops > 0 else 0.0
        memory = bytes_moved / self.mem_bandwidth if self.mem_bandwidth > 0 else 0.0
        return self.kernel_overhead + max(compute, memory)


@dataclass
class Channel:
    """A link with occupancy: it carries one copy at a time.

    ``busy_until`` is the end of the latest window booked on it and
    ``gaps`` the idle stretches before that end, sorted and disjoint,
    that a later copy may still fill (see :func:`reserve`).
    """

    name: str
    bandwidth: float  # bytes/s
    latency: float  # seconds
    busy_until: float = 0.0
    gaps: List[Tuple[float, float]] = field(default_factory=list)

    def transfer(self, bytes_moved: int, ready: float) -> Tuple[float, float]:
        """Schedule a transfer; returns ``(start, finish)`` sim times.

        Booked by :func:`reserve` with no issue clock, so every gap
        stays open to a later transfer.
        """
        return reserve(
            (self,), ready, 0.0, self.latency, bytes_moved / self.bandwidth
        )

    def reset(self) -> None:
        """Clear occupancy (between simulated runs)."""
        self.busy_until = 0.0
        self.gaps = []


def reserve(
    route: Sequence[Channel],
    ready: float,
    clock: float,
    latency: float,
    cost: float,
) -> Tuple[float, float]:
    """Book a copy on every channel of ``route``; returns ``(start, finish)``.

    The copy takes the earliest window of ``latency + cost`` seconds,
    starting at or after ``max(ready, clock)``, in which every channel
    of the route is idle, each in one of its gaps or past its tail.
    ``clock`` is the caller's issue clock: a copy is never booked into a
    gap that closed before it was issued, and since the clock only
    increases, a gap that ends by it is dropped.  A copy that fits in no
    gap goes past every tail and starts at ``max(ready, busy_until...)``.
    Either way it finishes at ``start + latency + cost``, summed in that
    order.
    """
    tail = ready
    gapped = False
    for chan in route:
        gaps = chan.gaps
        if gaps:
            if gaps[0][1] <= clock:
                drop = 1
                while drop < len(gaps) and gaps[drop][1] <= clock:
                    drop += 1
                del gaps[:drop]
            gapped = gapped or bool(gaps)
        if chan.busy_until > tail:
            tail = chan.busy_until
    start = tail
    floor = ready if ready > clock else clock
    if gapped and floor < tail:
        # Raise the candidate until every channel in turn accepts it.
        t, accepted, i, n = floor, 0, 0, len(route)
        while accepted < n:
            s = _earliest(route[i], t, latency, cost)
            if s > t:
                t, accepted = s, 1
            else:
                accepted += 1
            i = i + 1 if i + 1 < n else 0
        if t < tail:
            start = t
    finish = start + latency + cost
    for chan in route:
        if start >= chan.busy_until:
            if start > chan.busy_until and start > clock:
                chan.gaps.append((chan.busy_until, start))
            chan.busy_until = finish
            continue
        gaps = chan.gaps
        i = bisect_left(gaps, finish, key=_end)
        lo, hi = gaps[i]
        gaps[i:i + 1] = [g for g in ((lo, start), (finish, hi)) if g[0] < g[1]]
    return start, finish


_end = itemgetter(1)


def _earliest(chan: Channel, t: float, latency: float, cost: float) -> float:
    """The earliest start at or after ``t`` at which ``chan`` alone is
    idle for ``latency + cost`` seconds."""
    busy = chan.busy_until
    if t >= busy:
        return t
    gaps = chan.gaps
    # Gaps are disjoint and sorted, so by their ends too: skip those
    # that end before a window starting at ``t`` could.
    for i in range(bisect_left(gaps, t + latency + cost, key=_end), len(gaps)):
        lo, hi = gaps[i]
        s = lo if lo > t else t
        if s + latency + cost <= hi:
            return s
    return busy


@dataclass
class MachineConfig:
    """Rates for one machine variety (defaults approximate Summit)."""

    nodes: int = 1
    sockets_per_node: int = 2
    gpus_per_node: int = 6
    cores_per_socket: int = 20
    # V100: ~7 TF/s FP64, ~900 GB/s HBM2, 16 GB framebuffer.
    gpu_flops: float = 7.0e12
    gpu_bandwidth: float = 820e9
    gpu_kernel_overhead: float = 8e-6
    gpu_memory: int = 16 * 2**30
    # Power9 socket: ~0.5 TF/s FP64 aggregate, ~135 GB/s sustained.
    socket_flops: float = 0.52e12
    socket_bandwidth: float = 135e9
    socket_kernel_overhead: float = 2e-6
    sysmem_per_node: int = 512 * 2**30
    # Single core, for the single-threaded SciPy baseline.
    core_flops: float = 26e9
    core_bandwidth: float = 16e9
    core_kernel_overhead: float = 5e-7
    # NVLink 2.0 (intra-node, CPU<->GPU and GPU<->GPU on Summit).
    nvlink_bandwidth: float = 50e9
    nvlink_latency: float = 2e-6
    # Infiniband EDR: one shared NIC channel per node.
    nic_bandwidth: float = 12.5e9
    nic_latency: float = 1.5e-6
    # Same-memory staging copies (e.g. instance resizes) run at DRAM rate.
    intra_memory_bandwidth: float = 200e9


class Machine:
    """A collection of processors, memories and channels."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.processors: List[Processor] = []
        self.memories: List[Memory] = []
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self._nic: Dict[int, Channel] = {}
        self._uid = itertools.count()
        self._build()

    def _build(self) -> None:
        cfg = self.config
        for node in range(cfg.nodes):
            sysmem = Memory(
                next(self._uid), MemoryKind.SYSMEM, node, cfg.sysmem_per_node
            )
            self.memories.append(sysmem)
            for _ in range(cfg.sockets_per_node):
                self.processors.append(
                    Processor(
                        next(self._uid),
                        ProcessorKind.CPU_SOCKET,
                        node,
                        sysmem,
                        cfg.socket_flops,
                        cfg.socket_bandwidth,
                        cfg.socket_kernel_overhead,
                    )
                )
            # One single-core processor per node for sequential baselines.
            self.processors.append(
                Processor(
                    next(self._uid),
                    ProcessorKind.CPU_CORE,
                    node,
                    sysmem,
                    cfg.core_flops,
                    cfg.core_bandwidth,
                    cfg.core_kernel_overhead,
                )
            )
            for _ in range(cfg.gpus_per_node):
                fb = Memory(
                    next(self._uid), MemoryKind.FRAMEBUFFER, node, cfg.gpu_memory
                )
                self.memories.append(fb)
                self.processors.append(
                    Processor(
                        next(self._uid),
                        ProcessorKind.GPU,
                        node,
                        fb,
                        cfg.gpu_flops,
                        cfg.gpu_bandwidth,
                        cfg.gpu_kernel_overhead,
                    )
                )
            self._nic[node] = Channel(
                f"nic[{node}]", cfg.nic_bandwidth, cfg.nic_latency
            )

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def procs(self, kind: ProcessorKind) -> List[Processor]:
        """All processors of one kind."""
        return [p for p in self.processors if p.kind == kind]

    def scope(
        self,
        kind: ProcessorKind,
        count: int,
        per_node: Optional[int] = None,
    ) -> "MachineScope":
        """Select ``count`` processors of ``kind``, at most ``per_node``
        from each node (the quantum benchmark uses 4 of 6 GPUs/node)."""
        chosen: List[Processor] = []
        by_node: Dict[int, int] = {}
        for proc in self.procs(kind):
            if per_node is not None and by_node.get(proc.node, 0) >= per_node:
                continue
            chosen.append(proc)
            by_node[proc.node] = by_node.get(proc.node, 0) + 1
            if len(chosen) == count:
                return MachineScope(self, chosen)
        raise ValueError(
            f"machine has only {len(chosen)} {kind.value} processors "
            f"(requested {count}, per_node={per_node})"
        )

    def channels_between(self, src: Memory, dst: Memory) -> List[Channel]:
        """The channel path a copy between two memories occupies."""
        if src.uid == dst.uid:
            key = (src.uid, src.uid)
            if key not in self._channels:
                self._channels[key] = Channel(
                    f"intra[{src.uid}]",
                    self.config.intra_memory_bandwidth,
                    0.0,
                )
            return [self._channels[key]]
        if src.node == dst.node:
            key = (min(src.uid, dst.uid), max(src.uid, dst.uid))
            if key not in self._channels:
                self._channels[key] = Channel(
                    f"nvlink[{key[0]},{key[1]}]",
                    self.config.nvlink_bandwidth,
                    self.config.nvlink_latency,
                )
            return [self._channels[key]]
        return [self._nic[src.node], self._nic[dst.node]]

    def interconnect_latency(self, nodes: int) -> float:
        """One network hop latency; used by the allreduce model."""
        return self.config.nic_latency if nodes > 1 else self.config.nvlink_latency

    def channels(self) -> List[Channel]:
        """Every channel in use so far (lazily created paths + NICs)."""
        return list(self._channels.values()) + list(self._nic.values())

    def channel_horizon(self) -> float:
        """The latest channel occupancy anywhere on the machine.

        Sync points fold this into the simulated clock: a trailing
        copy (checkpoint snapshot, spill) keeps the machine busy after
        the last kernel retires.
        """
        return max((c.busy_until for c in self.channels()), default=0.0)

    def reset_channels(self) -> None:
        """Clear all channel occupancy."""
        for chan in self._channels.values():
            chan.reset()
        for chan in self._nic.values():
            chan.reset()


class MachineScope:
    """A subset of processors targeted by one run of the runtime."""

    def __init__(self, machine: Machine, processors: List[Processor]):
        if not processors:
            raise ValueError("empty machine scope")
        self.machine = machine
        self.processors = processors

    def __len__(self) -> int:
        return len(self.processors)

    @property
    def kind(self) -> ProcessorKind:
        """The processor kind of this scope."""
        return self.processors[0].kind

    @property
    def nodes(self) -> int:
        """Distinct nodes the scope spans."""
        return len({p.node for p in self.processors})

    def memories(self) -> List[Memory]:
        # Socket processors on the same node share their system memory.
        """Deduplicated memories of the scope."""
        seen: Dict[int, Memory] = {}
        for proc in self.processors:
            seen.setdefault(proc.memory.uid, proc.memory)
        return list(seen.values())


def summit(nodes: int = 1) -> Machine:
    """A Summit-like machine: 2 Power9 sockets + 6 V100s per node."""
    return Machine(MachineConfig(nodes=nodes))


def laptop() -> Machine:
    """A tiny machine for unit tests: 1 node, 1 socket, 2 small GPUs."""
    return Machine(
        MachineConfig(
            nodes=1,
            sockets_per_node=1,
            gpus_per_node=2,
            gpu_memory=64 * 2**20,
            sysmem_per_node=2 * 2**30,
        )
    )
