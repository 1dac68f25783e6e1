"""Graceful OOM degradation: LRU eviction + dirty spill to sysmem."""

import numpy as np
import pytest

import repro.numeric as rnp
from repro.legion import OutOfMemoryError, Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind
from repro.machine.model import MachineConfig


def tiny_gpu_machine(fb_mb: float = 1.0) -> Machine:
    return Machine(
        MachineConfig(
            nodes=1,
            sockets_per_node=1,
            gpus_per_node=2,
            gpu_memory=int(fb_mb * 2**20),
            sysmem_per_node=2 * 2**30,
        )
    )


def _over_capacity_workload(rt):
    """~1.7 MB of live data on a 1 MB framebuffer, touched in phases.

    Barriers split the fusion window so each phase's fused group pins
    only its own regions — a fused group's union footprint must be
    resident (see docs/ARCHITECTURE.md, Resilience).
    """
    n = 30_000  # 240 KB per array
    arrays = []
    for i in range(6):
        arrays.append(rnp.full(n, float(i + 1)))
        rt.barrier()
    total = rnp.zeros(n)
    rt.barrier()
    for a in arrays:
        total = total + a
        rt.barrier()
    return total, n


class TestSpill:
    def test_over_capacity_run_completes_exactly(self):
        machine = tiny_gpu_machine(fb_mb=1.0)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            total, n = _over_capacity_workload(rt)
            out = total.to_numpy().copy()
        np.testing.assert_array_equal(out, np.full(n, 21.0))
        prof = rt.profiler
        assert prof.evictions + prof.spills > 0
        assert prof.eviction_bytes + prof.spill_bytes > 0

    def test_spill_disabled_still_raises(self):
        machine = tiny_gpu_machine(fb_mb=1.0)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 1),
            RuntimeConfig.legate(spill=False),
        )
        with runtime_scope(rt), pytest.raises(OutOfMemoryError):
            _over_capacity_workload(rt)

    def test_oom_error_is_annotated(self):
        machine = tiny_gpu_machine(fb_mb=0.5)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 1),
            RuntimeConfig.legate(spill=False),
        )
        with runtime_scope(rt):
            with pytest.raises(OutOfMemoryError) as err:
                rnp.zeros(10_000_000)
                rt.barrier()
        exc = err.value
        assert exc.region_uid is not None
        assert exc.rect is not None
        assert exc.task is not None
        described = exc.describe()
        assert "framebuffer" in described
        assert exc.task in described

    def test_spill_cannot_shrink_single_oversized_region(self):
        """Pressure relief frees other instances, not physics: a region
        larger than the whole framebuffer still OOMs, annotated."""
        machine = tiny_gpu_machine(fb_mb=0.5)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            with pytest.raises(OutOfMemoryError):
                rnp.zeros(10_000_000)
                rt.barrier()

    def test_spilled_data_survives_roundtrip(self):
        """Data pushed out to sysmem under pressure stages back correctly."""
        machine = tiny_gpu_machine(fb_mb=1.0)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            total, n = _over_capacity_workload(rt)
            # Re-read every original-phase value after the pressure storm.
            again = total * 1.0
            rt.barrier()
            out = again.to_numpy().copy()
        np.testing.assert_array_equal(out, np.full(n, 21.0))

    def test_presets_pin_spill_off(self):
        from repro.harness.config import paper_legate

        assert RuntimeConfig.legate().spill is True
        assert RuntimeConfig.cupy().spill is False
        assert RuntimeConfig.scipy().spill is False
        assert paper_legate().spill is False
