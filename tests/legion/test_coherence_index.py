"""The hull index in ``RegionCoherence`` is a pruning filter, nothing more.

Three properties pin that down:

* **differential** — a verbatim copy of the linear-scan coherence the
  index replaced is driven through the same seeded operation sequences;
  every query must return the same fragments *in the same order* and
  ``valid`` must stay equal (keys in the same insertion order), because
  fragment order decides every copy, event-log line and modeled second;
* **count** — a halo lookup on a tiled 1-D region examines a number of
  pieces that does not grow with the number of memories;
* **golden** — a fig9 CG run at 24 GPUs reproduces, event for event, the
  log recorded before the index existed (its own digest, apart from the
  solution bytes', so a kernel's bit change cannot hide a log change).
"""

import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.apps.poisson import poisson2d_scipy
from repro.geometry import Rect, RectSet
from repro.legion import Runtime, RuntimeConfig
from repro.legion import coherence as coherence_module
from repro.legion.coherence import RegionCoherence, ValidPiece, _disjoint
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit


# ----------------------------------------------------------------------
# Reference: the coherence state as it was before the index, verbatim.
# ----------------------------------------------------------------------
class LinearScanCoherence:
    """Every all-memories query is a scan of ``valid`` in dict order."""

    def __init__(self) -> None:
        self.valid: Dict[int, List[ValidPiece]] = {}
        self.written = RectSet()

    def pieces(self, memory_uid: int) -> List[ValidPiece]:
        return self.valid.setdefault(memory_uid, [])

    def valid_set(self, memory_uid: int) -> RectSet:
        return RectSet([p.rect for p in self.pieces(memory_uid)])

    def missing(self, memory_uid: int, needed: Rect) -> List[Rect]:
        if needed.is_empty():
            return []
        remaining = [needed]
        for piece in self.pieces(memory_uid):
            if _disjoint(piece.rect, needed):
                continue
            nxt: List[Rect] = []
            for rect in remaining:
                nxt.extend(rect.subtract(piece.rect))
            remaining = nxt
            if not remaining:
                break
        return remaining

    def find_source(self, rect: Rect, exclude: int) -> List[Tuple[int, Rect, float]]:
        remaining = [rect]
        fragments: List[Tuple[int, Rect, float]] = []
        for mem_uid, pieces in self.valid.items():
            if mem_uid == exclude or not remaining:
                continue
            for piece in pieces:
                if _disjoint(piece.rect, rect):
                    continue
                nxt: List[Rect] = []
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

    def mark_valid(self, memory_uid: int, rect: Rect, time: float) -> None:
        if rect.is_empty():
            return
        pieces = self.pieces(memory_uid)
        out: List[ValidPiece] = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        out.append(ValidPiece(rect, time))
        self.valid[memory_uid] = out

    def mark_written(self, memory_uid: int, rect: Rect, time: float) -> None:
        if rect.is_empty():
            return
        self.written.add(rect)
        for mem_uid in list(self.valid.keys()):
            if mem_uid == memory_uid:
                continue
            pieces = self.valid[mem_uid]
            out: Optional[List[ValidPiece]] = None
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
                self.valid[mem_uid] = out
        self.mark_valid(memory_uid, rect, time)

    def write_complete(self, writes: List[Tuple[int, Rect, float]]) -> None:
        valid = self.valid
        for mem_uid in valid:
            valid[mem_uid] = []
        self.written.add_disjoint(rect for _, rect, _ in writes)
        for mem_uid, rect, t in writes:
            lst = valid.get(mem_uid)
            if lst is None:
                lst = valid[mem_uid] = []
            lst.append(ValidPiece(rect, t))

    def invalidate(self, memory_uid: int, rect: Optional[Rect] = None) -> None:
        if rect is None:
            self.valid.pop(memory_uid, None)
            return
        pieces = self.valid.get(memory_uid)
        if not pieces:
            return
        out: List[ValidPiece] = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        self.valid[memory_uid] = out

    def only_copy(self, memory_uid: int, rect: Rect) -> RectSet:
        dirty = self.written.intersect_rect(rect).intersect(
            self.valid_set(memory_uid)
        )
        for mem_uid in self.valid:
            if mem_uid == memory_uid or dirty.is_empty():
                continue
            dirty = dirty.subtract(self.valid_set(mem_uid))
        return dirty

    def invalidate_all(self) -> None:
        self.valid.clear()


# ----------------------------------------------------------------------
# Differential test
# ----------------------------------------------------------------------
MEMORIES = 9


def _random_rect(rng: random.Random, shape: Tuple[int, ...]) -> Rect:
    """A sub-rect of the region; sometimes all of it, sometimes empty."""
    roll = rng.random()
    if roll < 0.1:
        return Rect.from_shape(shape)
    lo, hi = [], []
    for extent in shape:
        a = rng.randrange(extent)
        b = a if roll > 0.95 else rng.randrange(a + 1, extent + 1)
        lo.append(a)
        hi.append(b)
    return Rect(tuple(lo), tuple(hi))


def _tiles(rng: random.Random, shape: Tuple[int, ...]) -> List[Tuple[int, Rect, float]]:
    """A disjoint row tiling of the whole region over random memories
    (repeats allowed: a memory may own several tiles; empty tiles are
    omitted, as the runtime omits them)."""
    colors = rng.randrange(1, MEMORIES + 3)
    cuts = sorted(rng.randrange(shape[0] + 1) for _ in range(colors - 1))
    bounds = [0, *cuts, shape[0]]
    writes = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            rect = Rect((lo, *(0 for _ in shape[1:])), (hi, *shape[1:]))
            writes.append((rng.randrange(MEMORIES), rect, rng.random()))
    return writes


def _assert_index_consistent(coh: RegionCoherence) -> None:
    """The index says exactly what a rescan of ``valid`` would."""
    index = coh._index
    assert list(index.slot) == list(coh.valid)
    slots = list(index.slot.values())
    assert slots == sorted(slots)
    assert [index.uids[s] for s in slots] == list(coh.valid)
    expect_lo = np.full(len(index.lo), np.iinfo(np.int64).max)
    expect_hi = np.full(len(index.hi), np.iinfo(np.int64).min)
    for mem, pieces in coh.valid.items():
        if pieces:
            expect_lo[index.slot[mem]] = min(p.rect.lo[0] for p in pieces)
            expect_hi[index.slot[mem]] = max(p.rect.hi[0] for p in pieces)
    np.testing.assert_array_equal(index.lo, expect_lo)
    np.testing.assert_array_equal(index.hi, expect_hi)


def _step(rng: random.Random, shape, new: RegionCoherence, ref: LinearScanCoherence):
    """Apply one random operation to both; compare what it returns."""
    op = rng.choice(
        ["pieces", "mark_valid", "mark_valid", "mark_written", "mark_written",
         "write_complete", "invalidate_mem", "invalidate_rect",
         "invalidate_all", "stage"]
    )
    mem = rng.randrange(MEMORIES)
    rect = _random_rect(rng, shape)
    t = rng.random()
    if op == "pieces":
        # Insert-on-read: a memory that merely looked takes its rank.
        assert new.pieces(mem) == ref.pieces(mem)
    elif op == "mark_valid":
        new.mark_valid(mem, rect, t)
        ref.mark_valid(mem, rect, t)
    elif op == "mark_written":
        new.mark_written(mem, rect, t)
        ref.mark_written(mem, rect, t)
    elif op == "write_complete":
        writes = _tiles(rng, shape)
        new.write_complete(writes)
        ref.write_complete(writes)
    elif op == "invalidate_mem":
        # Popped; a later touch re-inserts it at the *end* of ``valid``.
        new.invalidate(mem)
        ref.invalidate(mem)
    elif op == "invalidate_rect":
        new.invalidate(mem, rect)
        ref.invalidate(mem, rect)
    elif op == "invalidate_all":
        if rng.random() < 0.2:
            new.invalidate_all()
            ref.invalidate_all()
    else:
        # What _stage_reads does: look sources up, copy, mark valid.
        frags = new.find_source(rect, exclude=mem)
        assert frags == ref.find_source(rect, exclude=mem)
        for _, frag, _ in frags:
            new.mark_valid(mem, frag, t)
            ref.mark_valid(mem, frag, t)


@pytest.mark.parametrize("shape", [(40,), (12, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("seed", range(12))
def test_matches_linear_scan(seed, shape):
    rng = random.Random(f"{seed}/{shape}")
    new, ref = RegionCoherence(), LinearScanCoherence()
    for _ in range(250):
        _step(rng, shape, new, ref)
        # Same keys in the same order, same piece lists in the same order.
        assert list(new.valid.items()) == list(ref.valid.items())
        assert new.written.rects() == ref.written.rects()
        _assert_index_consistent(new)
        # Queries at every state, not only when the walk picks one.
        mem = rng.randrange(MEMORIES)
        query = _random_rect(rng, shape)
        assert new.find_source(query, exclude=mem) == ref.find_source(
            query, exclude=mem
        )
        assert new.only_copy(mem, query).rects() == ref.only_copy(mem, query).rects()
        assert new.missing(mem, query) == ref.missing(mem, query)
        # only_copy and missing insert ``mem`` on read in both.
        assert list(new.valid) == list(ref.valid)


def test_reinserted_memory_moves_to_the_end():
    """The pop/re-insert rank change the index has to follow."""
    full = Rect.interval1d(0, 10)
    coh = RegionCoherence()
    for mem in (3, 1, 2):
        coh.mark_valid(mem, full, float(mem))
    assert [m for m, _, _ in coh.find_source(full, exclude=9)] == [3]
    coh.invalidate(3)
    coh.mark_valid(3, full, 7.0)
    assert list(coh.valid) == [1, 2, 3]
    assert coh.holders(full) == [1, 2, 3]
    assert coh.find_source(full, exclude=9) == [(1, full, 1.0)]


def test_vacated_slots_are_reclaimed():
    """Loss/rejoin cycles do not grow the index without bound."""
    full = Rect.interval1d(0, 10)
    coh = RegionCoherence()
    coh.mark_valid(0, full, 0.0)
    for cycle in range(200):
        coh.mark_valid(1, full, float(cycle))
        coh.invalidate(1)
    assert len(coh._index.lo) <= 16
    assert coh.holders(full) == [0]
    _assert_index_consistent(coh)


# ----------------------------------------------------------------------
# Count test
# ----------------------------------------------------------------------
def _halo_lookup_counts(memories: int, monkeypatch) -> List[int]:
    """Pieces examined per halo lookup over two CG-like iterations.

    Counted as reads of ``ValidPiece.rect``: the 1-D interval engine
    compares bare ints inline, so there is no helper call to count, but
    it cannot judge a piece without fetching its rect.
    """
    tile = 8
    n = memories * tile
    counts: List[int] = []
    reads = [0]

    class CountedPiece(ValidPiece):
        @property
        def rect(self):
            reads[0] += 1
            return self.__dict__["rect"]

        @rect.setter
        def rect(self, value):
            self.__dict__["rect"] = value

    coh = RegionCoherence()
    coh.mark_valid(memories, Rect.interval1d(0, n), 0.0)  # attached host data
    with monkeypatch.context() as patch:
        patch.setattr(coherence_module, "ValidPiece", CountedPiece)
        for it in range(2):
            coh.write_complete(
                [(m, Rect.interval1d(m * tile, (m + 1) * tile), float(it))
                 for m in range(memories)]
            )
            for m in range(memories):
                for halo in (m * tile - 1, (m + 1) * tile):
                    if not 0 <= halo < n:
                        continue
                    want = Rect.interval1d(halo, halo + 1)
                    before = reads[0]
                    frags = coh.find_source(want, exclude=m)
                    counts.append(reads[0] - before)
                    assert [(src, rect) for src, rect, _ in frags] == [
                        (halo // tile, want)
                    ]
                    coh.mark_valid(m, want, float(it))
    return counts


def test_halo_lookup_cost_is_independent_of_memory_count(monkeypatch):
    worst = {
        memories: max(_halo_lookup_counts(memories, monkeypatch))
        for memories in (64, 256, 1024)
    }
    # The owner's tile, plus at most the neighbour-of-neighbour that
    # holds the same element as *its* halo.
    assert worst[64] <= 4
    assert worst[64] == worst[256] == worst[1024]


# ----------------------------------------------------------------------
# Golden event log
# ----------------------------------------------------------------------
GRID = 48
GPUS = 24

# Two digests of the run below.  GOLDEN_LOG is sha256 over the canonical
# event log + modeled seconds -- what the runtime did, recorded at the
# commit before the index (efa7ab1) and asserted from there to 2e6c65e
# with the since-deleted ``RuntimeConfig.fastpath`` both off (per-color
# coherence writes, a fresh constraint solve per launch) and on.
# GOLDEN_SOLUTION is sha256 over the solution bytes -- what the kernels
# computed.  Kept apart so that a PR which means to change kernel bits
# re-records the second and must still reproduce the first.
#
# GOLDEN_LOG is the ``fusion=True`` run and was re-recorded twice.  When
# scalar reductions joined the deferred window (it was 4df8a2e7...ae4f
# from efa7ab1 to 0a10023): CG's vdot and norm now share a fused group
# with the x/r updates and one allreduce, so the log holds 19 launches
# and 10 allreduces where it held 30 and 15, at other times.  And when
# the SpMV joined the window (it was 1bcdd4b3...ccac up to 71733fd): it
# shares a launch with the vdot that reads its output, 14 launches, the
# same 10 allreduces, at other times.
# GOLDEN_LOG_UNFUSED is the same program with ``fusion=False`` -- 48
# launches, 15 allreduces -- recorded at 0a10023, before that change
# touched ``src/``: the runtime's eager path it pins must never move.
# Both moved once with the *program*: when ``cg`` began to issue each
# iteration's SpMV before its convergence wait (they were ec33314b...f874
# and 5f589028...403b up to 9e88c84), the same launches and allreduces
# are issued in another order, at other times.  The check-first loop
# kept in tests/core/test_cg_spmv_before_wait.py still gives back both old
# digests on the runtime of that change.
# Both moved again with the copy engine: when a copy began to fill the
# earliest window idle on every channel of its route instead of waiting
# for the busiest one (they were ac6a52ce...1c29 and 7460c792...7872 up
# to b32cbfb), the halo copies of the four nodes' NICs overlap.  The same
# copies, sources and bytes are logged, at other times:
# GOLDEN_LOG_SHAPE and GOLDEN_LOG_UNFUSED_SHAPE, the digests without
# times, did not move.  Modeled seconds 0.005360733440 -> 0.005342549120
# fused; unfused unchanged at 0.009143034185.
# All four moved with the program when ``cg`` began to read its
# ``p·q == 0`` test one body late and a zero start stopped computing a
# residual (they were ea0be056...51c3, e38281a6...8562, 4c225b07...2367
# and 2fe8183f...dc91 up to d1078ee).  The start issues ``r = b.copy()``
# where it issued ``b - A @ x``, and ``‖r₀‖`` is ``‖b‖``'s fold: one
# SpMV, its halo copies and one allreduce fewer, 13 launches and 9
# allreduces fused (14 and 10 before), 46 and 14 unfused (48 and 15).
# The shape digests move too, with no time in them: each body writes
# its ``x + p α`` into a new region instead of updating ``x`` in place,
# so the log names another region per body.  Modeled seconds
# 0.005342549120 -> 0.004763856031 fused, 0.009143034185 ->
# 0.008084055571 unfused.  The solution bits did not move.
# GOLDEN_LOG_UNFUSED moved once more with the program when ``cg`` began
# to issue each body before the checks that read the last one (it was
# 305f987d...755d up to e7f113c).  Eager, the same launches run in the
# same order, but the host issues a body before it waits on ``‖r‖``, so
# they run at other times: modeled seconds 0.008084055571 ->
# 0.006701013893, 46 launches and 14 allreduces as before.  Fused, every
# wait flushes the window, which holds one iteration either way, so the
# groups, the log and GOLDEN_LOG did not move; neither did either shape.
GOLDEN_LOG = "a3679ff92ba89fb36bb03622b7cdd8f54aa6d0b8ea93bf541b98e26d3056b202"
GOLDEN_LOG_UNFUSED = (
    "25f7d63231005b8de2d0a9bf3fdf2d6ddfcc73998fa403cd811179588fec32ac"
)
GOLDEN_LOG_SHAPE = (
    "ef4ff38adc8da1153971f80a27352500e11417f7b8f32c07ed2b7a501234915b"
)
GOLDEN_LOG_UNFUSED_SHAPE = (
    "d8d65d48975339cd59cdc544183ebc28c24250ceb0eec34cc0e0dc2ccc8c633e"
)
GOLDEN_SOLUTION = "3e9b04184b217f9b6982155fa9f5f8cdac49b356858e62bd71fe93a9f3bd32c4"


def _canonical_log(log) -> List[str]:
    """Event-log lines with region uids -- and the default ``region<uid>``
    names built from them -- renumbered by first appearance (they come
    from a process-wide counter; memory and processor uids are per
    machine and stay)."""
    order: Dict[int, int] = {}

    def canon(entry: dict) -> None:
        uid = entry["region"]
        entry["region"] = order.setdefault(uid, len(order))
        if entry["region_name"] == f"region{uid}":
            entry["region_name"] = f"region#{entry['region']}"

    lines = []
    for line in log.to_lines():
        event = json.loads(line)
        if "region" in event:
            canon(event)
        for req in event.get("reqs", ()):
            canon(req)
        lines.append(json.dumps(event, sort_keys=True))
    return lines


def _fig9_cg_digests(fusion: bool):
    rt = Runtime(
        summit(nodes=4).scope(ProcessorKind.GPU, GPUS),
        # Recorded before traces replayed at a discount: the scopes CG
        # opens and the host templates are on, charged in full.
        RuntimeConfig.legate(
            validate=True, trace_replay_fraction=1.0, fusion=fusion
        ),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(GRID))
        b = rnp.ones(GRID * GRID)
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        modeled = rt.barrier()
        solution = x.to_numpy()
    assert not check_log(rt.event_log)
    # The digests were recorded without them; the batching and the solve
    # memo must engage and still reproduce the log.
    counters = rt.profiler.fastpath_counters
    assert counters["batched_writes"] > 0
    assert counters["solve_hits"] > 0
    digest = hashlib.sha256()
    for line in _canonical_log(rt.event_log):
        digest.update(line.encode())
    digest.update(repr(modeled).encode())
    return (
        digest.hexdigest(),
        hashlib.sha256(solution.tobytes()).hexdigest(),
        rt.profiler,
    )


def test_fig9_cg_event_log_matches_golden():
    log, solution, profiler = _fig9_cg_digests(fusion=True)
    assert (profiler.tasks_launched, profiler.allreduces) == (13, 9)
    assert log == GOLDEN_LOG
    assert solution == GOLDEN_SOLUTION


def test_fig9_cg_event_log_matches_unfused_golden():
    log, solution, profiler = _fig9_cg_digests(fusion=False)
    assert (profiler.tasks_launched, profiler.allreduces) == (46, 14)
    assert log == GOLDEN_LOG_UNFUSED
    assert solution == GOLDEN_SOLUTION
