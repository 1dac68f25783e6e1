"""Physical instances: the shared allocation store with coalescing (§4.2).

Mappers record every region allocation made in each memory and consult
the store before allocating.  When a task needs a sub-rectangle that
intersects an existing instance of the same region, the two views are
coalesced into one larger allocation when the heuristic deems the overlap
large enough — reducing memory usage and eliminating the repeated
full-vector copies described in §4.3 (RA1→RA5 resize, then steady state).

Capacity accounting lives here too: exceeding a memory's capacity (minus
the runtime's framebuffer reservation) raises :class:`OutOfMemoryError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry import Rect
from repro.legion.exceptions import OutOfMemoryError
from repro.machine import Memory, MemoryKind

_instance_uid = itertools.count()

# Two views of a region that do not overlap still coalesce while their
# hull is at most this many times their combined volume.
COALESCE_SLACK = 2.0


@dataclass
class Instance:
    """One allocation: a rectangle of a region resident in a memory.

    ``alloc_bytes`` may exceed the bytes the current rect needs when the
    instance claimed a pooled (recycled) allocation — growing the view
    within the allocation is then free, which is what produces the
    paper's steady state (§4.3: x2 reuses RA2 and only halo bytes move).
    """

    uid: int
    region_uid: int
    rect: Rect
    itemsize: int
    alloc_bytes: int = 0
    scale: float = 1.0  # per-region memory magnification
    # Logical LRU clock: the store's use tick when this instance was
    # last found or created.  Eviction under memory pressure walks
    # instances oldest-first (see MemoryState.lru_instances).
    last_use: int = 0

    def __post_init__(self) -> None:
        self.alloc_bytes = max(self.alloc_bytes, self.nbytes)

    @property
    def nbytes(self) -> int:
        """Bytes the current view needs (<= alloc_bytes)."""
        return self.rect.volume() * self.itemsize


class MemoryState:
    """Allocation store for a single memory."""

    def __init__(
        self,
        memory: Memory,
        reserved_bytes: int = 0,
        data_scale: float = 1.0,
        inflight_window: int = 0,
    ):
        self.memory = memory
        self.reserved_bytes = int(reserved_bytes)
        self.data_scale = float(data_scale)
        self.used_bytes = 0.0
        self.peak_bytes = 0.0
        # region uid -> instances of that region in this memory
        self.instances: Dict[int, List[Instance]] = {}
        # Recycled allocations (bytes); they stay charged until drained.
        self.pool: List[int] = []
        self.pool_slack = 4.0
        # Deferred collection: the newest `inflight_window` recycled
        # allocations belong to tasks still in the pipeline and cannot
        # be reclaimed under pressure (Legion collects instances only
        # once their consumers finish).  This is what makes the
        # quantum application's memory scale imperfectly (Fig. 11).
        self.inflight_window = int(inflight_window)
        # Logical clock stamped onto instances for LRU eviction.
        self._use_tick = 0

    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """Bytes still chargeable (capacity - reservation - used).

        Never negative: ``_charge`` refuses any allocation that would
        push usage past the budget, so a clamped zero only papers over
        float noise, not real overdraft.
        """
        return max(0.0, self.memory.capacity - self.reserved_bytes - self.used_bytes)

    def _charge(self, nbytes: int, what: str, scale: Optional[float] = None) -> None:
        nbytes = nbytes * (self.data_scale if scale is None else scale)
        if nbytes > self.available:
            raise OutOfMemoryError(
                f"{self.memory.kind.value}[{self.memory.uid}]",
                nbytes,
                max(0, self.available),
            )
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def _release(self, nbytes: int, scale: Optional[float] = None) -> None:
        self.used_bytes -= nbytes * (self.data_scale if scale is None else scale)
        assert self.used_bytes >= -1e-6

    # ------------------------------------------------------------------
    def use(self, region_uid: int, rect: Rect) -> Optional[Instance]:
        """An existing instance of the region containing ``rect``.

        A hit is stamped as the memory's most recent use -- the whole
        of :meth:`ensure` when an instance already holds ``rect``; a
        miss (``None``) leaves the LRU clock alone.
        """
        for inst in self.instances.get(region_uid, ()):
            if inst.rect.contains(rect):
                self._use_tick += 1
                inst.last_use = self._use_tick
                return inst
        return None

    def ensure(
        self,
        region_uid: int,
        rect: Rect,
        itemsize: int,
        scale: Optional[float] = None,
    ) -> Tuple[Instance, int, bool]:
        """Find or create an instance covering ``rect``.

        Returns ``(instance, resize_copy_bytes, fresh)``:
        ``resize_copy_bytes`` is the data moved *within this memory* to
        migrate an allocation into a coalesced, larger one (the "full
        copy of x1" in Fig. 5); ``fresh`` marks a brand-new instance,
        whose already-valid overlap the runtime must copy in.
        """
        scale = self.data_scale if scale is None else float(scale)
        if rect.is_empty():
            return Instance(next(_instance_uid), region_uid, rect, itemsize, scale=scale), 0, False
        existing = self.use(region_uid, rect)
        if existing is not None:
            return existing, 0, False
        self._use_tick += 1

        insts = self.instances.setdefault(region_uid, [])
        if insts:
            best: Optional[Instance] = None
            best_overlap = -1
            for inst in insts:
                overlap = inst.rect.intersect(rect).volume()
                if overlap > best_overlap:
                    best, best_overlap = inst, overlap
            assert best is not None
            hull = best.rect.union_hull(rect)
            # Coalesce when the merged allocation is not much larger than
            # the two views combined (the §4.2 heuristic: overlapping part
            # sufficiently larger than the non-overlapping parts).
            if best_overlap > 0 or hull.volume() <= COALESCE_SLACK * (
                best.rect.volume() + rect.volume()
            ):
                old_bytes = best.nbytes
                new_bytes = hull.volume() * itemsize
                if new_bytes <= best.alloc_bytes:
                    # The existing allocation already has room: the view
                    # grows in place with no data movement.
                    best.rect = hull
                    best.last_use = self._use_tick
                    return best, 0, False
                grow = max(0, new_bytes - best.alloc_bytes)
                try:
                    try:
                        self._charge(grow, "resize", best.scale)
                    except OutOfMemoryError:
                        if len(self.pool) <= self.inflight_window:
                            raise
                        self.drain_pool()
                        self._charge(grow, "resize", best.scale)
                except OutOfMemoryError as exc:
                    raise exc.annotate(region_uid=region_uid, rect=rect) from None
                move = old_bytes  # migrate prior contents into the new alloc
                best.rect = hull
                best.alloc_bytes = new_bytes
                best.last_use = self._use_tick
                return best, move, False

        try:
            inst = self._allocate(region_uid, rect, itemsize, scale)
        except OutOfMemoryError as exc:
            raise exc.annotate(region_uid=region_uid, rect=rect) from None
        insts.append(inst)
        # The caller must populate a brand-new instance: any bytes of the
        # needed rect already valid in this memory (in other instances)
        # are duplicated with an intra-memory copy.
        return inst, 0, True

    def _allocate(
        self, region_uid: int, rect: Rect, itemsize: int, scale: float
    ) -> Instance:
        """Fresh allocation, preferring a recycled one of adequate size.

        The pool stores *scaled* sizes, so recycling works across
        regions with different memory magnifications.
        """
        needed = rect.volume() * itemsize
        needed_scaled = needed * scale
        best_idx = -1
        for idx, size in enumerate(self.pool):
            if needed_scaled <= size <= self.pool_slack * max(needed_scaled, 1):
                if best_idx < 0 or size < self.pool[best_idx]:
                    best_idx = idx
        if best_idx >= 0:
            size = self.pool.pop(best_idx)
            return Instance(
                next(_instance_uid), region_uid, rect, itemsize,
                max(needed, int(size / max(scale, 1e-12))), scale=scale,
                last_use=self._use_tick,
            )
        try:
            self._charge(needed, "alloc", scale)
        except OutOfMemoryError:
            if len(self.pool) <= self.inflight_window:
                raise
            self.drain_pool()
            self._charge(needed, "alloc", scale)
        return Instance(
            next(_instance_uid), region_uid, rect, itemsize, needed,
            scale=scale, last_use=self._use_tick,
        )

    def drain_pool(self) -> None:
        """Reclaim recycled allocations older than the in-flight window."""
        keep = self.pool[len(self.pool) - self.inflight_window :] if self.inflight_window else []
        for size in self.pool[: len(self.pool) - len(keep)]:
            self._release(size, 1.0)
        self.pool = list(keep)

    def free_region(self, region_uid: int) -> int:
        """Recycle a region's allocations into the pool (scaled sizes)."""
        freed = 0
        for inst in self.instances.pop(region_uid, ()):
            if inst.alloc_bytes > 0:
                self.pool.append(inst.alloc_bytes * inst.scale)
                freed += inst.alloc_bytes
        # Bound the pool: keep the 32 largest recycled allocations.
        if len(self.pool) > 32:
            self.pool.sort(reverse=True)
            for size in self.pool[32:]:
                self._release(size, 1.0)
            del self.pool[32:]
        return freed

    # ------------------------------------------------------------------
    # Pressure relief and failure primitives (composed by the runtime's
    # spill policy and by the chaos recovery path).
    # ------------------------------------------------------------------
    def lru_instances(self) -> List[Instance]:
        """Every resident instance, least recently used first."""
        out = [i for insts in self.instances.values() for i in insts]
        out.sort(key=lambda i: i.last_use)
        return out

    def drop_instance(self, inst: Instance) -> float:
        """Remove one instance and release its charge (scaled bytes freed).

        Unlike :meth:`free_region` this does NOT pool the allocation —
        eviction exists to give the bytes back *now*.
        """
        insts = self.instances.get(inst.region_uid)
        if not insts or inst not in insts:
            return 0.0
        insts.remove(inst)
        if not insts:
            del self.instances[inst.region_uid]
        freed = inst.alloc_bytes * inst.scale
        if inst.alloc_bytes > 0:
            self._release(inst.alloc_bytes, inst.scale)
        return freed

    def lose(self) -> None:
        """Simulate losing this memory: all contents vanish, uncharged.

        The peak high-water mark survives (it measures what the run
        needed, not what a fault left behind)."""
        self.instances.clear()
        self.pool.clear()
        self.used_bytes = 0.0


class InstanceManager:
    """Allocation stores for every memory in a runtime's scope."""

    def __init__(
        self,
        reserved_fb_bytes: int = 0,
        data_scale: float = 1.0,
        inflight_window: int = 0,
    ):
        self.reserved_fb_bytes = int(reserved_fb_bytes)
        self.data_scale = float(data_scale)
        self.inflight_window = int(inflight_window)
        self._states: Dict[int, MemoryState] = {}

    def state(self, memory: Memory) -> MemoryState:
        """The (lazily created) allocation store of a memory."""
        st = self._states.get(memory.uid)
        if st is None:
            # The configured reservation models Legion + CUDA library
            # overhead on 16 GB V100s; clamp it for small test memories.
            reserved = (
                min(self.reserved_fb_bytes, int(0.15 * memory.capacity))
                if memory.kind == MemoryKind.FRAMEBUFFER
                else 0
            )
            st = MemoryState(
                memory,
                reserved_bytes=reserved,
                data_scale=self.data_scale,
                inflight_window=self.inflight_window,
            )
            self._states[memory.uid] = st
        return st

    def ensure(self, memory: Memory, region_uid: int, rect: Rect, itemsize: int, scale=None):
        """Find-or-create an instance; see :meth:`MemoryState.ensure`."""
        return self.state(memory).ensure(region_uid, rect, itemsize, scale)

    def free_region(self, region_uid: int) -> None:
        """Recycle the region's allocations in every memory."""
        for st in self._states.values():
            st.free_region(region_uid)

    def lose_memory(self, memory_uid: int) -> None:
        """Simulate a fault wiping one memory (see MemoryState.lose)."""
        st = self._states.get(memory_uid)
        if st is not None:
            st.lose()

    def used_bytes(self, memory: Memory) -> int:
        """Currently charged bytes (live + pooled) in a memory."""
        return self.state(memory).used_bytes

    def peak_bytes(self, memory: Memory) -> int:
        """High-water mark of charged bytes in a memory."""
        return self.state(memory).peak_bytes

    def total_peak_bytes(self) -> int:
        """Sum of per-memory high-water marks."""
        return sum(st.peak_bytes for st in self._states.values())
