"""Unit tests for the allocation store and coalescing (§4.2)."""

import pytest

from repro.geometry import Rect
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.instance import InstanceManager, MemoryState
from repro.machine import Memory, MemoryKind


def R(lo, hi):
    return Rect((lo,), (hi,))


def make_memory(capacity=1000):
    return Memory(uid=0, kind=MemoryKind.FRAMEBUFFER, node=0, capacity=capacity)


class TestAllocation:
    def test_fresh_allocation_charges(self):
        st = MemoryState(make_memory())
        inst, move, fresh = st.ensure(region_uid=1, rect=R(0, 10), itemsize=8)
        assert fresh
        assert move == 0
        assert st.used_bytes == 80

    def test_containing_instance_reused(self):
        st = MemoryState(make_memory())
        first, _, _ = st.ensure(1, R(0, 10), 8)
        second, move, fresh = st.ensure(1, R(2, 8), 8)
        assert not fresh
        assert second is first
        assert move == 0
        assert st.used_bytes == 80

    def test_empty_rect_is_free(self):
        st = MemoryState(make_memory())
        _, move, _ = st.ensure(1, R(3, 3), 8)
        assert move == 0
        assert st.used_bytes == 0

    def test_different_regions_do_not_share(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 10), 8)
        st.ensure(2, R(0, 10), 8)
        assert st.used_bytes == 160


class TestCoalescing:
    def test_overlapping_views_coalesce(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 6), 8)
        inst, move, _ = st.ensure(1, R(4, 10), 8)
        assert inst.rect == R(0, 10)
        # The old 6-element allocation had to be migrated.
        assert move == 48
        assert st.used_bytes == 80

    def test_adjacent_views_coalesce(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 5), 8)
        inst, move, _ = st.ensure(1, R(5, 10), 8)
        assert inst.rect == R(0, 10)

    def test_distant_views_do_not_coalesce(self):
        st = MemoryState(make_memory(capacity=100_000))
        st.ensure(1, R(0, 5), 8)
        inst, move, fresh = st.ensure(1, R(1000, 1005), 8)
        assert fresh
        assert inst.rect == R(1000, 1005)
        assert move == 0
        assert st.used_bytes == 80

    def test_steady_state_no_more_moves(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 6), 8)
        st.ensure(1, R(4, 10), 8)
        _, move, _ = st.ensure(1, R(0, 10), 8)
        assert move == 0


class TestCapacity:
    def test_oom_raised(self):
        st = MemoryState(make_memory(capacity=100))
        with pytest.raises(OutOfMemoryError):
            st.ensure(1, R(0, 100), 8)

    def test_reservation_reduces_capacity(self):
        st = MemoryState(make_memory(capacity=100), reserved_bytes=50)
        with pytest.raises(OutOfMemoryError):
            st.ensure(1, R(0, 8), 8)

    def test_free_region_recycles(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 10), 8)
        st.free_region(1)
        # Allocation moves to the pool (still charged, §4.2 reuse)...
        assert st.used_bytes == 80
        assert st.pool == [80]
        # ...and a new region of similar size claims it with no charge.
        inst, move, _ = st.ensure(2, R(0, 9), 8)
        assert move == 0
        assert st.used_bytes == 80
        assert inst.alloc_bytes == 80

    def test_pooled_allocation_absorbs_growth(self):
        """The §4.3 steady state: a recycled, larger allocation lets the
        view grow to the halo rect with no resize copy."""
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 11), 8)  # old vector incl. halo element
        st.free_region(1)
        inst, move, _ = st.ensure(2, R(0, 10), 8)  # new vector, written part
        assert move == 0
        inst2, move2, _ = st.ensure(2, R(0, 11), 8)  # read incl. halo
        assert inst2 is inst
        assert move2 == 0  # grew inside the recycled allocation

    def test_pool_drained_under_memory_pressure(self):
        st = MemoryState(make_memory(capacity=900))
        st.ensure(1, R(0, 20), 8)  # 160 bytes
        st.free_region(1)
        # A 800-byte request cannot reuse the 160-byte pooled allocation
        # and 160 + 800 > 900, so the pool is drained before charging.
        st.ensure(2, R(0, 100), 8)
        assert st.used_bytes == 800
        assert st.pool == []

    def test_peak_tracks_high_water(self):
        st = MemoryState(make_memory())
        st.ensure(1, R(0, 10), 8)
        st.free_region(1)
        assert st.peak_bytes == 80

    def test_data_scale_magnifies_footprint(self):
        st = MemoryState(make_memory(capacity=1000), data_scale=100.0)
        with pytest.raises(OutOfMemoryError):
            st.ensure(1, R(0, 10), 8)  # 80 bytes * 100 > 1000


class TestInstanceManager:
    def test_reservation_only_for_framebuffers(self):
        mgr = InstanceManager(reserved_fb_bytes=64)
        fb = Memory(0, MemoryKind.FRAMEBUFFER, 0, 1000)
        sysmem = Memory(1, MemoryKind.SYSMEM, 0, 1000)
        assert mgr.state(fb).reserved_bytes == 64
        assert mgr.state(sysmem).reserved_bytes == 0

    def test_reservation_clamped_for_small_memories(self):
        mgr = InstanceManager(reserved_fb_bytes=10**12)
        fb = Memory(0, MemoryKind.FRAMEBUFFER, 0, 1000)
        assert mgr.state(fb).reserved_bytes == 150

    def test_free_region_across_memories(self):
        mgr = InstanceManager()
        fb0 = Memory(0, MemoryKind.FRAMEBUFFER, 0, 10**6)
        fb1 = Memory(1, MemoryKind.FRAMEBUFFER, 0, 10**6)
        mgr.ensure(fb0, 7, R(0, 10), 8)
        mgr.ensure(fb1, 7, R(0, 10), 8)
        mgr.free_region(7)
        # Instances are gone; bytes moved to each memory's reuse pool.
        assert mgr.state(fb0).instances.get(7, []) == []
        assert mgr.state(fb1).instances.get(7, []) == []
        assert mgr.state(fb0).pool == [80]
        assert mgr.state(fb1).pool == [80]
