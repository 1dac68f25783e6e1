"""The requirement-major mapping path answers exactly what the old one did.

Four properties pin that down:

* **differential** — verbatim copies of the coherence queries and
  updates as they were before the integer interval engine, running on a
  verbatim copy of the frozen-dataclass ``Rect``, are driven through
  the same seeded operation sequences as the live ``RegionCoherence``;
  every fragment and remainder must come back *in the same order*,
  every memory's piece list, times and rank in ``valid`` must stay
  equal, and the lane's one-pass ``covered_ready`` must equal
  ``(ready_time, missing == [])``.  The allocation store gets the same
  treatment: the lane (``use``, then ``ensure`` on a miss) against a
  verbatim copy of the old ``ensure``, tick for tick;
* **mutation** — the walks can fail: right-before-left remainders, a
  ``covered_ready`` that does not insert on read, and a lane hit that
  skips the LRU tick each break every walk;
* **golden** — a spill/eviction run (where LRU order decides what is
  dropped) and GPU- and node-loss replay runs reproduce, event for
  event, logs recorded at earlier commits from a runtime that wrote
  coherence per color and solved afresh every launch, with the lane's
  second half in play or not;
* **budget** — Python calls per shard of a warm CG iteration do not
  depend on the machine size and stay under a recorded ceiling; so do
  the calls per issued launch of a solve a trace replays.
"""

import gc
import hashlib
import random
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.analysis.events import EventLog
from repro.apps.multigrid import TwoLevelGMG
from repro.apps.poisson import poisson2d_scipy
from repro.geometry import Rect
from repro.legion import Runtime, RuntimeConfig
from repro.legion import coherence as coherence_module
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.coherence import RegionCoherence, ValidPiece, _covers, _disjoint
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.instance import Instance, MemoryState, _instance_uid
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind, summit
from repro.machine.model import MachineConfig

from tests.legion.test_coherence_index import _canonical_log


# ----------------------------------------------------------------------
# Reference geometry: the frozen-dataclass Rect, verbatim.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OldRect:
    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if len(lo) != len(hi):
            raise ValueError("lo/hi dimensionality mismatch")
        empty = False
        for l, h in zip(lo, hi):
            if h <= l:
                empty = True
                break
        object.__setattr__(self, "_empty", empty)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        return self._empty

    def volume(self) -> int:
        vol = 1
        for l, h in zip(self.lo, self.hi):
            if h <= l:
                return 0
            vol *= h - l
        return vol

    def contains(self, other: "OldRect") -> bool:
        if other.is_empty():
            return True
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersect(self, other: "OldRect") -> "OldRect":
        lo = tuple(map(max, self.lo, other.lo))
        hi = tuple(map(min, self.hi, other.hi))
        return OldRect(lo, tuple(map(max, lo, hi)))

    def union_hull(self, other: "OldRect") -> "OldRect":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return OldRect(lo, hi)

    def subtract(self, other: "OldRect") -> List["OldRect"]:
        if self.is_empty():
            return []
        clipped = other.intersect(self)
        if clipped.is_empty():
            return [self]
        pieces: List[OldRect] = []
        lo = list(self.lo)
        hi = list(self.hi)
        for dim in range(self.ndim):
            if lo[dim] < clipped.lo[dim]:
                plo, phi = list(lo), list(hi)
                phi[dim] = clipped.lo[dim]
                pieces.append(OldRect(tuple(plo), tuple(phi)))
                lo[dim] = clipped.lo[dim]
            if clipped.hi[dim] < hi[dim]:
                plo, phi = list(lo), list(hi)
                plo[dim] = clipped.hi[dim]
                pieces.append(OldRect(tuple(plo), tuple(phi)))
                hi[dim] = clipped.hi[dim]
        return [p for p in pieces if not p.is_empty()]


# ----------------------------------------------------------------------
# Reference coherence: the six methods the engine rewrote, verbatim.
# (The hull index, pieces(), _store(), write_complete() and only_copy()
# are untouched by the engine and inherited.)
# ----------------------------------------------------------------------
class OldCoherence(RegionCoherence):
    def missing(self, memory_uid, needed):
        if needed.is_empty():
            return []
        pieces = self.pieces(memory_uid)
        for piece in pieces:
            if _covers(piece.rect, needed):
                return []
        remaining = [needed]
        for piece in pieces:
            if _disjoint(piece.rect, needed):
                continue
            nxt = []
            for rect in remaining:
                nxt.extend(rect.subtract(piece.rect))
            remaining = nxt
            if not remaining:
                break
        return remaining

    def ready_time(self, memory_uid, needed):
        t = 0.0
        for piece in self.pieces(memory_uid):
            if piece.ready_time > t and not _disjoint(piece.rect, needed):
                t = piece.ready_time
        return t

    def find_source(self, rect, exclude):
        remaining = [rect]
        fragments = []
        for mem_uid in self.holders(rect):
            if mem_uid == exclude:
                continue
            if not remaining:
                break
            for piece in self.valid[mem_uid]:
                if _disjoint(piece.rect, rect):
                    continue
                nxt = []
                for want in remaining:
                    part = want.intersect(piece.rect)
                    if part.is_empty():
                        nxt.append(want)
                    else:
                        fragments.append((mem_uid, part, piece.ready_time))
                        nxt.extend(want.subtract(part))
                remaining = nxt
                if not remaining:
                    break
        return fragments

    def mark_valid(self, memory_uid, rect, time):
        if rect.is_empty():
            return
        pieces = self.pieces(memory_uid)
        out = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        out.append(ValidPiece(rect, time))
        self._store(memory_uid, out)

    def mark_written(self, memory_uid, rect, time):
        if rect.is_empty():
            return
        self.written.add(rect)
        for mem_uid in self.holders(rect):
            if mem_uid == memory_uid:
                continue
            pieces = self.valid[mem_uid]
            out = None
            for idx, piece in enumerate(pieces):
                if _disjoint(piece.rect, rect):
                    if out is not None:
                        out.append(piece)
                    continue
                if out is None:
                    out = pieces[:idx]
                for leftover in piece.rect.subtract(rect):
                    out.append(ValidPiece(leftover, piece.ready_time))
            if out is not None:
                self._store(mem_uid, out)
        self.mark_valid(memory_uid, rect, time)

    def invalidate(self, memory_uid, rect=None):
        if rect is None:
            if self.valid.pop(memory_uid, None) is not None:
                self._index.drop(memory_uid)
            return
        pieces = self.valid.get(memory_uid)
        if not pieces:
            return
        out = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        self._store(memory_uid, out)


# ----------------------------------------------------------------------
# Coherence walks
# ----------------------------------------------------------------------
MEMORIES = 9
SHAPES = {"1d": (40,), "2d": (12, 7)}
SEEDS = range(12)  # x two shapes = 24 walks of 250 steps


def _bounds(rng: random.Random, shape) -> Tuple[tuple, tuple]:
    """A sub-rect of the region; sometimes all of it, sometimes empty."""
    roll = rng.random()
    if roll < 0.1:
        return tuple(0 for _ in shape), tuple(shape)
    lo, hi = [], []
    for extent in shape:
        a = rng.randrange(extent)
        b = a if roll > 0.92 else rng.randrange(a + 1, extent + 1)
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


def _tiles(rng: random.Random, shape) -> List[Tuple[int, tuple, tuple, float]]:
    """A disjoint row tiling of the whole region over random memories."""
    colors = rng.randrange(1, MEMORIES + 3)
    cuts = sorted(rng.randrange(shape[0] + 1) for _ in range(colors - 1))
    edges = [0, *cuts, shape[0]]
    return [
        (
            rng.randrange(MEMORIES),
            (lo, *(0 for _ in shape[1:])),
            (hi, *shape[1:]),
            rng.random(),
        )
        for lo, hi in zip(edges, edges[1:])
        if hi > lo
    ]


def _key(rect) -> Tuple[tuple, tuple]:
    return rect.lo, rect.hi


def _state(coh: RegionCoherence):
    """Everything observable: rank order, piece order, bounds, times."""
    return (
        [
            (mem, [(_key(p.rect), p.ready_time) for p in pieces])
            for mem, pieces in coh.valid.items()
        ],
        [_key(r) for r in coh.written.rects()],
    )


def _fragments(frags):
    return [(mem, _key(rect), t) for mem, rect, t in frags]


def _coherence_walk(seed: int, shape) -> None:
    """250 random operations on both; raises AssertionError on any
    difference in what an operation returns or leaves behind."""
    rng = random.Random(f"lane/{seed}/{shape}")
    new, old = RegionCoherence(), OldCoherence()
    for _ in range(250):
        op = rng.choice(
            ["mark_valid", "mark_valid", "mark_written", "mark_written",
             "write_complete", "invalidate_mem", "invalidate_rect", "stage",
             "lane", "lane"]
        )
        mem = rng.randrange(MEMORIES)
        absent = [m for m in range(MEMORIES) if m not in old.valid]
        if op == "lane" and absent and rng.random() < 0.5:
            # A memory that never looked, or was popped and has not
            # looked since: the lane's query must give it its rank.
            mem = rng.choice(absent)
        lo, hi = _bounds(rng, shape)
        rect, orect = Rect(lo, hi), OldRect(lo, hi)
        t = rng.random()
        if op == "mark_valid":
            new.mark_valid(mem, rect, t)
            old.mark_valid(mem, orect, t)
        elif op == "mark_written":
            new.mark_written(mem, rect, t)
            old.mark_written(mem, orect, t)
        elif op == "write_complete":
            writes = _tiles(rng, shape)
            new.write_complete([(m, Rect(l, h), w) for m, l, h, w in writes])
            old.write_complete([(m, OldRect(l, h), w) for m, l, h, w in writes])
        elif op == "invalidate_mem":
            # Popped; a later touch re-inserts it at the *end* of ``valid``.
            new.invalidate(mem)
            old.invalidate(mem)
        elif op == "invalidate_rect":
            new.invalidate(mem, rect)
            old.invalidate(mem, orect)
        elif op == "stage":
            # What _stage_reads does: ready time, missing, sources,
            # mark each fragment valid.
            assert new.ready_time(mem, rect) == old.ready_time(mem, orect)
            missing = new.missing(mem, rect)
            assert [_key(r) for r in missing] == [
                _key(r) for r in old.missing(mem, orect)
            ]
            for piece in missing:
                frags = new.find_source(piece, exclude=mem)
                assert _fragments(frags) == _fragments(
                    old.find_source(OldRect(piece.lo, piece.hi), exclude=mem)
                )
                for _, frag, _ in frags:
                    new.mark_valid(mem, frag, t)
                    old.mark_valid(mem, OldRect(frag.lo, frag.hi), t)
        else:
            # What the lane asks instead of ready_time + missing: the
            # ready time, if and only if one piece holds the rect.
            ready = old.ready_time(mem, orect)
            missing = old.missing(mem, orect)
            got = new.covered_ready(mem, rect)
            if got is not None:
                assert (got, []) == (ready, missing)
            else:
                assert orect.is_empty() or not any(
                    _covers(p.rect, orect) for p in old.valid[mem]
                )
        assert _state(new) == _state(old)
        # Queries at every state, not only when the walk picks one.
        mem = rng.randrange(MEMORIES)
        lo, hi = _bounds(rng, shape)
        rect, orect = Rect(lo, hi), OldRect(lo, hi)
        assert _fragments(new.find_source(rect, exclude=mem)) == _fragments(
            old.find_source(orect, exclude=mem)
        )
        if rng.random() < 0.3:
            assert [_key(r) for r in new.missing(mem, rect)] == [
                _key(r) for r in old.missing(mem, orect)
            ]
            # missing inserts ``mem`` on read in both.
            assert list(new.valid) == list(old.valid)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_coherence_matches_the_pre_engine_copy(seed, shape):
    _coherence_walk(seed, shape)


def test_covered_ready_on_an_untouched_memory_takes_its_rank():
    """Insert-on-read: the lane fixes a memory's place in the order
    sources are tried in, exactly as ready_time/missing did."""
    full = Rect.interval1d(0, 10)
    coh = RegionCoherence()
    coh.mark_valid(3, full, 1.0)
    assert coh.covered_ready(7, full) is None
    coh.mark_valid(5, full, 2.0)
    assert list(coh.valid) == [3, 7, 5]
    assert coh.covered_ready(5, Rect.interval1d(2, 4)) == 2.0
    assert coh.covered_ready(5, Rect.interval1d(4, 4)) is None  # empty


# ----------------------------------------------------------------------
# Allocation-store walks: the lane against the old ensure(), verbatim.
# ----------------------------------------------------------------------
class OldMemoryState(MemoryState):
    def find(self, region_uid, rect):
        for inst in self.instances.get(region_uid, []):
            if inst.rect.contains(rect):
                return inst
        return None

    def ensure(self, region_uid, rect, itemsize, scale=None):
        scale = self.data_scale if scale is None else float(scale)
        if rect.is_empty():
            return Instance(next(_instance_uid), region_uid, rect, itemsize, scale=scale), 0, False
        self._use_tick += 1
        existing = self.find(region_uid, rect)
        if existing is not None:
            existing.last_use = self._use_tick
            return existing, 0, False

        insts = self.instances.setdefault(region_uid, [])
        if self.coalescing and insts:
            best: Optional[Instance] = None
            best_overlap = -1
            for inst in insts:
                overlap = inst.rect.intersect(rect).volume()
                if overlap > best_overlap:
                    best, best_overlap = inst, overlap
            assert best is not None
            hull = best.rect.union_hull(rect)
            if best_overlap > 0 or hull.volume() <= self.coalesce_slack * (
                best.rect.volume() + rect.volume()
            ):
                old_bytes = best.nbytes
                new_bytes = hull.volume() * itemsize
                if new_bytes <= best.alloc_bytes:
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
                move = old_bytes
                best.rect = hull
                best.alloc_bytes = new_bytes
                best.last_use = self._use_tick
                return best, move, False

        try:
            inst = self._allocate(region_uid, rect, itemsize, scale)
        except OutOfMemoryError as exc:
            raise exc.annotate(region_uid=region_uid, rect=rect) from None
        insts.append(inst)
        return inst, 0, True


class _FakeMemory:
    uid = 0
    capacity = 6_000
    kind = type("Kind", (), {"value": "fb"})()


def _lane_map(store: MemoryState, region_uid: int, rect: Rect, itemsize: int):
    """One (color, requirement) mapping as Runtime._execute_task does it."""
    if store.use(region_uid, rect) is not None:
        return 0, False
    _, resize_bytes, fresh = store.ensure(region_uid, rect, itemsize)
    return resize_bytes, fresh


def _evict_lru(store: MemoryState, need_scaled: float) -> float:
    """Drop least-recently-used instances until ``need_scaled`` bytes
    are freed (or nothing is left); returns the scaled bytes freed.

    ``MemoryState.evict_lru`` until the runtime's spill policy stopped
    calling it (it walks ``lru_instances`` itself, filtering clean from
    dirty): kept here as the reference pressure relief of the walks.
    """
    freed = 0.0
    for inst in store.lru_instances():
        if freed >= need_scaled:
            break
        freed += store.drop_instance(inst)
    return freed


def _store_state(store: MemoryState):
    return (
        store._use_tick,
        store.used_bytes,
        list(store.pool),
        [
            (uid, [(_key(i.rect), i.alloc_bytes, i.last_use) for i in insts])
            for uid, insts in store.instances.items()
        ],
    )


def _store_walk(seed: int) -> None:
    rng = random.Random(f"store/{seed}")
    new, old = MemoryState(_FakeMemory()), OldMemoryState(_FakeMemory())
    for _ in range(250):
        roll = rng.random()
        region = rng.randrange(5)
        if roll < 0.8:
            lo, hi = _bounds(rng, (64,))
            if hi[0] <= lo[0]:
                continue  # the runtime never maps an empty rect
            rect = Rect(lo, hi)
            try:
                got = _lane_map(new, region, rect, 8)
            except OutOfMemoryError:
                got = "oom"
            try:
                _, resize_bytes, fresh = old.ensure(region, rect, 8)
                expect = (resize_bytes, fresh)
            except OutOfMemoryError:
                expect = "oom"
            assert got == expect
            if got == "oom":
                # Pressure relief: which instances go is LRU order.
                assert _evict_lru(new, 600.0) == _evict_lru(old, 600.0)
        elif roll < 0.9:
            assert new.free_region(region) == old.free_region(region)
        else:
            need = rng.choice([64.0, 512.0])
            assert _evict_lru(new, need) == _evict_lru(old, need)
        assert _store_state(new) == _store_state(old)


@pytest.mark.parametrize("seed", SEEDS)
def test_lane_mapping_matches_the_old_ensure(seed):
    _store_walk(seed)


# ----------------------------------------------------------------------
# Mutation checks: each must break every walk.
# ----------------------------------------------------------------------
def _right_before_left(spans, lo, hi):
    out = []
    for a, b in spans:
        if hi <= a or b <= lo:
            out.append((a, b))
            continue
        if hi < b:
            out.append((hi, b))
        if a < lo:
            out.append((a, lo))
    return out


def test_right_before_left_remainders_fail_every_walk(monkeypatch):
    subtract = Rect.subtract
    monkeypatch.setattr(coherence_module, "_cut", _right_before_left)
    monkeypatch.setattr(
        Rect, "subtract", lambda self, other: subtract(self, other)[::-1]
    )
    for shape in SHAPES.values():
        for seed in SEEDS:
            with pytest.raises(AssertionError):
                _coherence_walk(seed, shape)


def test_no_insert_on_read_fails_every_walk(monkeypatch):
    def covered_ready(self, memory_uid, needed):
        if needed.is_empty():
            return None
        for piece in self.valid.get(memory_uid, ()):
            if _covers(piece.rect, needed):
                return max(piece.ready_time, 0.0)
        return None

    monkeypatch.setattr(RegionCoherence, "covered_ready", covered_ready)
    for shape in SHAPES.values():
        for seed in SEEDS:
            with pytest.raises(AssertionError):
                _coherence_walk(seed, shape)


def test_lane_hit_without_the_lru_tick_fails_every_walk(monkeypatch):
    def use(self, region_uid, rect):
        for inst in self.instances.get(region_uid, ()):
            if inst.rect.contains(rect):
                return inst
        return None

    # The mutant lane; ensure()'s own hit path keeps its stamp.
    monkeypatch.setattr(
        sys.modules[__name__], "_lane_map",
        lambda store, region_uid, rect, itemsize: (
            (0, False) if use(store, region_uid, rect) is not None
            else store.ensure(region_uid, rect, itemsize)[1:]
        ),
    )
    for seed in SEEDS:
        with pytest.raises(AssertionError):
            _store_walk(seed)


# ----------------------------------------------------------------------
# Goldens, recorded from the runtime before batched writes and memos
# ----------------------------------------------------------------------
# sha256 over the canonical event log + modeled seconds.  One digest per
# run serves both variants: the log taken under validation (every read
# goes through _stage_reads) or attached to a non-validating runtime
# (reads take the lane).  GOLDEN_SPILL and GOLDEN_GPU_LOSS were recorded
# at 80a31a5 and asserted there and at 2e6c65e with the since-deleted
# ``RuntimeConfig.fastpath`` both off (per-color coherence writes, fresh
# constraint solves, recomputed images) and on.  GOLDEN_NODE_LOSS was
# recorded at 2e6c65e with that flag off; with it on the same commit
# gave the same digest, validated and not.
#
# The two loss goldens are ``fusion=True`` runs and were re-recorded
# once, when scalar reductions joined the deferred window (GPU loss was
# bdf307ee...3a46, node loss 6be4409f...b79a up to 0a10023): the
# journal a loss replays now holds 3 launches -- fused groups with
# their reductions inside -- where it held 6, and every later time
# moves with the allreduces that merged.  Their ``_UNFUSED`` twins are
# the same runs with ``fusion=False`` (9 launches re-executed),
# recorded at 0a10023 before that change touched ``src/``: the eager
# path they pin must never move.  GOLDEN_SPILL has no reduction in it.
GOLDEN_SPILL = "e53588cbe18d1fc71ea5991dae5a194a888a6f4166da79a081d660f0ee64c18d"
GOLDEN_GPU_LOSS = "ef098fd2f551c285724be4d60aff4687f4d522974cbc6eda630ab32eeb44bf64"
GOLDEN_NODE_LOSS = "59bb590663dd67ee97fd5834a01a8d9490f7c4f5db28f137b53116d72fc036a9"
GOLDEN_GPU_LOSS_UNFUSED = (
    "b29ac4be7c24e2d4bf8666052d0e002c53d552b409671cc56c5cdd6ef7787fba"
)
GOLDEN_NODE_LOSS_UNFUSED = (
    "3aeaf2849ebdea059f5846081db6091bf77a0b1a7bb815a283d83f555ae666d2"
)

VARIANTS = [
    pytest.param(True, id="validated"),
    pytest.param(False, id="lane"),
]


def _logging_runtime(scope, validate, chaos=None, fusion=True) -> Runtime:
    # Recorded before traces replayed at a discount: CG opens its trace
    # scopes and the host replays its templates, charged in full.
    rt = Runtime(
        scope,
        RuntimeConfig.legate(
            validate=validate, chaos=chaos, trace_replay_fraction=1.0,
            fusion=fusion,
        ),
    )
    if rt.event_log is None:
        rt.event_log = EventLog(name="lane")
    return rt


def _digest(rt: Runtime, modeled: float) -> str:
    digest = hashlib.sha256()
    for line in _canonical_log(rt.event_log):
        digest.update(line.encode())
    digest.update(repr(modeled).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("validate", VARIANTS)
def test_spill_and_eviction_log_matches_golden(validate):
    """Over capacity on one GPU: what is evicted and what is spilled,
    and when, is decided by the LRU stamps the lane has to keep."""
    machine = Machine(MachineConfig(
        nodes=1, sockets_per_node=1, gpus_per_node=2,
        gpu_memory=1 << 20, sysmem_per_node=2 << 30,
    ))
    rt = _logging_runtime(machine.scope(ProcessorKind.GPU, 1), validate)
    with runtime_scope(rt):
        n = 30_000
        arrays = []
        for i in range(6):
            arrays.append(rnp.full(n, float(i + 1)))
            rt.barrier()
        total = rnp.zeros(n)
        rt.barrier()
        for a in arrays:
            total = total + a
            rt.barrier()
        modeled = rt.barrier()
    assert (rt.profiler.evictions, rt.profiler.spills) == (5, 6)
    assert _digest(rt, modeled) == GOLDEN_SPILL


def _cg(
    nodes, validate, chaos=None, fusion=True
) -> Tuple[Runtime, float, float, np.ndarray]:
    rt = _logging_runtime(
        summit(nodes=nodes).scope(ProcessorKind.GPU, 2, per_node=2),
        validate, chaos, fusion,
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(16))
        b = rnp.ones(256)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        t0 = rt.barrier()
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        t1 = rt.barrier()
        solution = x.to_numpy().copy()
    return rt, t1 - t0, t1, solution


def _assert_loss_replay_matches(kind, nodes, golden, validate, fusion=True):
    """A GPU or a node lost mid-solve: wipe, restore, journal replay.
    With a chaos injector attached every mapping takes _map_instance."""
    _, solve_s, _, fault_free = _cg(nodes, False, fusion=fusion)
    chaos = ChaosConfig(
        checkpoint_every=16, losses=(LossSchedule(kind, 1, solve_s / 2),)
    )
    rt, _, end, recovered = _cg(nodes, validate, chaos, fusion)
    assert rt.profiler.faults_injected[f"{kind}-loss"] == 1
    assert rt.profiler.tasks_reexecuted == (3 if fusion else 9)
    assert np.array_equal(recovered, fault_free)
    if validate:
        assert check_log(rt.event_log) == []
    assert _digest(rt, end) == golden


@pytest.mark.parametrize("validate", VARIANTS)
def test_gpu_loss_replay_log_matches_golden(validate):
    _assert_loss_replay_matches("gpu", 1, GOLDEN_GPU_LOSS, validate)


@pytest.mark.parametrize("validate", VARIANTS)
def test_node_loss_replay_log_matches_golden(validate):
    _assert_loss_replay_matches("node", 2, GOLDEN_NODE_LOSS, validate)


@pytest.mark.parametrize("validate", VARIANTS)
def test_gpu_loss_replay_log_matches_unfused_golden(validate):
    _assert_loss_replay_matches(
        "gpu", 1, GOLDEN_GPU_LOSS_UNFUSED, validate, fusion=False
    )


@pytest.mark.parametrize("validate", VARIANTS)
def test_node_loss_replay_log_matches_unfused_golden(validate):
    _assert_loss_replay_matches(
        "node", 2, GOLDEN_NODE_LOSS_UNFUSED, validate, fusion=False
    )


# A matfact training batch is sparse launches with element-wise glue in
# between: half its non-fusible launches pass the deferred window, so a
# loss mid-batch finds them in the journal ahead of launches issued
# before them.
def _train(loss_at: Optional[float] = None):
    """Two ``train_batch`` steps on 4 GPUs, the second one measured;
    with ``loss_at``, a checkpoint between them and GPU 1 lost then."""
    from repro.apps.matfact import MatrixFactorizationModel

    chaos = None
    if loss_at is not None:
        chaos = ChaosConfig(
            checkpoint_every=10_000, losses=(LossSchedule("gpu", 1, loss_at),)
        )
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 4),
        RuntimeConfig.legate(chaos=chaos),
    )
    data = np.random.default_rng(5)
    users, items = data.integers(0, 300, 4_000), data.integers(0, 200, 4_000)
    ratings = data.uniform(1.0, 5.0, 4_000)
    journals = []
    replay = rt._replay_journal

    def spy(journal):
        journals.append([task.name for task in journal])
        return replay(journal)

    rt._replay_journal = spy
    with runtime_scope(rt):
        model = MatrixFactorizationModel(300, 200, k=8, mu=3.0, seed=1)
        model.train_batch(users[:2_000], items[:2_000], ratings[:2_000])
        rt.barrier()
        if chaos is not None:
            rt.checkpoint()  # the journal starts with the batch
        start = rt.barrier()
        before = rt.profiler.snapshot()
        model.train_batch(users[2_000:], items[2_000:], ratings[2_000:])
        end = rt.barrier()
        delta = rt.profiler.since(before)
        bits = [
            a.to_numpy().tobytes()
            for a in (model.U, model.V, model.bu, model.bi)
        ]
    return bits, (start, end), delta, journals


def test_warm_train_batch_launch_count():
    """13 launches where there were 18: the second gather passes the
    window its first ``add`` sits in, so the four-op prediction chain
    fuses whole; the U, V and b_u updates share one launch, which the
    row sums pass; b_i's update shares the loss norm's."""
    _, _, delta, _ = _train()
    assert delta.tasks_launched <= 13
    # Flushed by the SDDMM and the two SpMMs (each reads or reduces
    # into what the window owes); the column sums find it empty, the
    # sixteenth launch having filled it.
    assert (delta.launches_passed, delta.hazard_flushes) == (2, 3)


def test_gpu_loss_mid_batch_replays_passed_launches():
    fault_free, _, _, _ = _train()
    _, (start, end), _, none = _train(loss_at=1e9)
    assert none == []
    recovered, _, delta, (journal,) = _train(start + 0.55 * (end - start))
    assert delta.faults_injected["gpu-loss"] == 1
    assert delta.tasks_reexecuted == len(journal) > 0
    # Execution order: the second gather ran -- and was journaled --
    # ahead of the ``add`` issued before it, which was still deferred.
    assert journal.count("gather_rows") == 2
    second = len(journal) - 1 - journal[::-1].index("gather_rows")
    assert any(name.startswith("fused{4}:add+add+add") for name in journal[second:])
    assert delta.launches_passed >= 1
    assert recovered == fault_free


# ----------------------------------------------------------------------
# Host-cost budget (deterministic: a count of calls, no clock)
# ----------------------------------------------------------------------
# Python-level calls (functions and C builtins alike) made inside
# Runtime._execute_task during one warm fig9 CG iteration, per shard of
# an *issued* launch (17 per iteration: how many of them share an
# executed shard is the window's business -- 7 executed launches since
# reductions joined it, 12 before).  As counted at this change: 71.0 at
# 24 GPUs, 69.3 at 96; at 0a10023, per issued shard: 76.8 and 75.2
# (its budget of 118 per executed shard is 83.3 here); at fb01e37
# 90.8 and 89.2.  The ceiling leaves under a tenth of slack for
# interpreter differences; a mapping path that regrows a per-pair
# helper chain does not fit under it.
CALLS_PER_SHARD_BUDGET = 78

# Launches and allreduces of one warm fig9 CG iteration (M=None), as
# executed.  Fused: SpMV, vdot(p, q), {x += , r -= , vdot(r, z),
# norm(r)} and {p = z + p * beta}, the second and the third each
# ending in one allreduce.  ``fusion=False``: what it has always been
# (each ``x += p * alpha`` is a multiply and an add).
CG_ITERATION_LAUNCHES = {True: 4, False: 10}
CG_ITERATION_ALLREDUCES = {True: 2, False: 3}

# Python-level calls inside AutoTask.execute and Runtime.flush_window
# -- solve, window, mapping, kernels -- per issued launch of a
# GMG-preconditioned CG solve on 6 GPUs whose iterations a trace
# replays: 617.6 as counted at this change (0a10023: 636.1, or 637.6
# inside AutoTask.execute alone, where every flush then began; fb01e37,
# no replay: 797.8).  Flushes count on their own since a reduction in
# the window is flushed by the wait on its value, outside any execute.
# A replay that goes back to deriving what the capture derived (solve
# signature, window summaries, row shapes) does not fit.  May only go
# down.
CALLS_PER_REPLAYED_LAUNCH_BUDGET = 660

ISSUED_PER_CG_CALL = 17  # one warm sp.linalg.cg(maxiter=1), M=None


def _calls_per_shard(gpus: int) -> float:
    grid = 2 * gpus  # a tile is two grid rows at either size: same halos
    rt = Runtime(
        summit(nodes=gpus // 6).scope(ProcessorKind.GPU, gpus),
        RuntimeConfig.legate(),
    )
    calls = [0]
    mapping = [0]  # _execute_task frames on the stack

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_execute_task":
            mapping[0] += 1
        elif event == "return" and frame.f_code.co_name == "_execute_task":
            mapping[0] -= 1
        elif mapping[0] and (event == "call" or event == "c_call"):
            calls[0] += 1

    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        rt.barrier()
        shards = rt.profiler.shards_executed
        # A cyclic collection inside the measured iteration would run
        # the finalizers of whatever earlier tests left behind -- and
        # count them.
        gc.collect()
        gc.disable()
        sys.setprofile(count)
        try:
            sp.linalg.cg(A, b, rtol=0.0, maxiter=1)
            rt.barrier()
        finally:
            sys.setprofile(None)
            gc.enable()
        shards = rt.profiler.shards_executed - shards
    assert shards == 7 * gpus
    return calls[0] / (ISSUED_PER_CG_CALL * gpus)


def test_calls_per_shard_fit_the_budget_at_any_machine_size():
    small, large = _calls_per_shard(24), _calls_per_shard(96)
    assert abs(large - small) <= 0.05 * small, (small, large)
    assert max(small, large) <= CALLS_PER_SHARD_BUDGET, (small, large)


def _cg_iteration_counts(fusion: bool, M=None):
    """(launches, allreduces) one more warm CG iteration executes."""
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 6),
        RuntimeConfig.legate(fusion=fusion),
    )
    counts = []
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(24))
        b = rnp.ones(24 * 24)
        if M is not None:
            M = M(A)
        for iters in (3, 3, 4):  # warm-up, then a solve and one longer
            before = (rt.profiler.tasks_launched, rt.profiler.allreduces)
            sp.linalg.cg(A, b, rtol=0.0, maxiter=iters, M=M)
            rt.barrier()
            counts.append((
                rt.profiler.tasks_launched - before[0],
                rt.profiler.allreduces - before[1],
            ))
    (_, short, long) = counts
    return long[0] - short[0], long[1] - short[1]


@pytest.mark.parametrize("fusion", [True, False])
def test_cg_iteration_launch_and_allreduce_counts(fusion):
    launches, allreduces = _cg_iteration_counts(fusion)
    assert allreduces == CG_ITERATION_ALLREDUCES[fusion]
    assert launches == CG_ITERATION_LAUNCHES[fusion]


def test_preconditioned_cg_iteration_keeps_two_allreduces():
    """z = M r sits between the r update and vdot(r, z): the norm still
    hoists to the vdot's group, so the outer iteration keeps two."""
    from repro.core.linalg.preconditioners import jacobi

    assert _cg_iteration_counts(True, M=jacobi) == (4, 2)
    assert _cg_iteration_counts(False, M=jacobi) == (11, 3)


def test_calls_per_replayed_launch_fit_the_budget():
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 6), RuntimeConfig.legate()
    )
    calls = [0]
    issued = [0]
    depth = [0]  # AutoTask.execute / flush_window frames on the stack

    def count(frame, event, arg):
        code = frame.f_code
        execute = code.co_name == "execute" and code.co_filename.endswith(
            "constraints/task.py"
        )
        if execute or (
            code.co_name == "flush_window"
            and code.co_filename.endswith("legion/runtime.py")
        ):
            if event == "call":
                depth[0] += 1
                issued[0] += execute
            elif event == "return":
                depth[0] -= 1
        elif depth[0] and (event == "call" or event == "c_call"):
            calls[0] += 1

    with runtime_scope(rt):
        k = 31
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(k * k)
        gmg = TwoLevelGMG(A, k, coarse_rtol=0.0, coarse_maxiter=4)
        M = gmg.as_preconditioner()
        sp.linalg.cg(A, b, rtol=0.0, maxiter=2, M=M)  # warm-up: captures
        rt.barrier()
        launched = rt.profiler.tasks_launched
        replayed = sum(t.replayed_launches for t in rt._traces.values())
        sys.setprofile(count)
        try:
            sp.linalg.cg(A, b, rtol=0.0, maxiter=3, M=M)
            rt.barrier()
        finally:
            sys.setprofile(None)
        launched = rt.profiler.tasks_launched - launched
        replayed = (
            sum(t.replayed_launches for t in rt._traces.values()) - replayed
        )
    assert (issued[0], launched) == (313, 135)
    assert replayed >= 0.95 * launched, (replayed, launched)
    per_launch = calls[0] / issued[0]
    assert per_launch <= CALLS_PER_REPLAYED_LAUNCH_BUDGET, per_launch
