"""Machine models for the simulated distributed executions.

The paper evaluates on the Summit supercomputer; this package provides a
parametric description of such machines — nodes containing CPU sockets and
GPUs, their attached memories, and the bandwidth/latency-modelled channels
connecting memories (DRAM, NVLink 2.0, PCIe, Infiniband EDR).
"""

from repro.machine.model import (
    MIN_CHUNK,
    Channel,
    Machine,
    MachineScope,
    Memory,
    MemoryKind,
    Processor,
    ProcessorKind,
    laptop,
    reserve,
    summit,
)

__all__ = [
    "MIN_CHUNK",
    "Channel",
    "Machine",
    "MachineScope",
    "Memory",
    "MemoryKind",
    "Processor",
    "ProcessorKind",
    "laptop",
    "reserve",
    "summit",
]
