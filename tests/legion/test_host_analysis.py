"""Host-side analysis machinery: each mechanism against its reference.

The runtime always uses this pure host-side mechanism: batched
coherence writes (``coherence.eligible_write_reqs``,
``RegionCoherence.write_complete``), launch templates (solve plan,
window verdict, launch shape) keyed by the launch's structural key
(``tracing.Template``), a bounded window-plan cache
(``tracing.BoundedMemo``) and an epoch-keyed image-partition cache
(``partition.ImagePartitionCache``).  Everything here pins down the
two properties the design hangs on:

* **bitwise neutrality, unit by unit** — ``write_complete`` lands the
  state of the sequential ``mark_written`` loop, a rebuilt solve plan
  equals a fresh solve, a memoized template runs as one derived afresh
  (traced or not, SpMV or element-wise), a cached image equals a
  recomputed one, and
  the batched-write eligibility check rejects every launch shape where
  the interleaving could be observed.  (End to end — CG, spill and
  eviction, GPU- and node-loss replay — the goldens of
  ``test_coherence_index.py`` and ``test_mapping_lane.py`` hold the
  runtime to logs recorded without any of this machinery.);
* **invalidation** — every cache observes the mutations that could
  make it stale (write epochs, key-partition changes) and never pins
  region lifetimes.
"""

import contextlib
import gc
import hashlib
import random
import weakref

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.events import EventLog
from repro.apps.poisson import poisson2d_scipy
from repro.constraints import Align, AutoTask, Broadcast, Image, ImageKind, Store
from repro.constraints.solver import (
    rebuild_solution, solution_plan, solve_partitions,
)
from repro.geometry import Rect, RectSet
from repro.legion import Replicate, Runtime, RuntimeConfig, Tiling
from repro.legion import runtime as runtime_module
from repro.legion.coherence import RegionCoherence, eligible_write_reqs
from repro.legion.partition import ImagePartitionCache
from repro.legion.privilege import Privilege
from repro.legion.runtime import runtime_scope
from repro.legion.task import Requirement
from repro.legion.tracing import BoundedMemo
from repro.machine import ProcessorKind, laptop

from tests.legion.test_coherence_index import _canonical_log


# ----------------------------------------------------------------------
# Batched coherence writes
# ----------------------------------------------------------------------
class TestWriteComplete:
    """write_complete == the sequential mark_written loop, state for state."""

    @staticmethod
    def _tiles(n, colors):
        bounds = [round(i * n / colors) for i in range(colors + 1)]
        return [
            Rect((bounds[i],), (bounds[i + 1],))
            for i in range(colors)
            if bounds[i + 1] > bounds[i]
        ]

    @staticmethod
    def _random_state(rng, n):
        coh = RegionCoherence()
        for mem in range(rng.randrange(4)):
            for _ in range(rng.randrange(3)):
                lo = rng.randrange(n)
                hi = rng.randrange(lo + 1, n + 1)
                coh.mark_valid(mem, Rect((lo,), (hi,)), rng.random())
        for _ in range(rng.randrange(4)):
            lo = rng.randrange(n)
            hi = rng.randrange(lo + 1, n + 1)
            coh.mark_written(rng.randrange(3), Rect((lo,), (hi,)), rng.random())
        return coh

    @staticmethod
    def _canonical(coh):
        return {
            mem: sorted((p.rect.lo, p.rect.hi, p.ready_time) for p in pieces)
            for mem, pieces in coh.valid.items()
            if pieces
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sequential_path(self, seed):
        rng = random.Random(seed)
        n = 40
        colors = rng.choice([1, 2, 3, 5])
        tiles = self._tiles(n, colors)
        writes = [
            (rng.randrange(4), rect, rng.random()) for rect in tiles
        ]
        slow = self._random_state(rng, n)
        fast = RegionCoherence()
        fast.written = RectSet(slow.written.rects())
        for mem, pieces in slow.valid.items():
            for p in pieces:
                fast.mark_valid(mem, p.rect, p.ready_time)
        assert self._canonical(slow) == self._canonical(fast)

        for mem, rect, t in writes:
            slow.mark_written(mem, rect, t)
        fast.write_complete(writes)

        assert self._canonical(slow) == self._canonical(fast)
        # Not just the same set: the same pieces in the same order.
        assert slow.written.rects() == fast.written.rects()

    def test_written_union_is_exact(self):
        coh = RegionCoherence()
        coh.mark_written(0, Rect((3,), (9,)), 0.1)
        coh.write_complete([
            (0, Rect((0,), (5,)), 0.2),
            (1, Rect((5,), (10,)), 0.3),
        ])
        covered = RectSet([Rect((0,), (10,))])
        assert covered.subtract(coh.written).is_empty()
        assert coh.written.subtract(covered).is_empty()


# ----------------------------------------------------------------------
# Solve memo: positional signatures, plans, no region pinning
# ----------------------------------------------------------------------
@pytest.fixture
def rt():
    runtime = Runtime(
        laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate()
    )
    with runtime_scope(runtime):
        yield runtime


def _copy_task(rt, out, inp, name="copy"):
    """``out = inp`` over two aligned stores: a launch the memo keys."""
    def kernel(ctx):
        ctx.view("o")[...] = ctx.view("i")

    task = AutoTask(rt, name, kernel)
    task.add_output("o", out)
    task.add_input("i", inp)
    task.add_alignment_constraint(out, inp)
    return task


def memo_key(rt, *stores, colors=2, setup=None):
    """The solve-memo key of a launch reading ``stores``."""
    task = AutoTask(rt, "read", lambda ctx: None)
    for i, store in enumerate(stores):
        task.add_input(f"a{i}", store)
    if setup is not None:
        setup(task)
    return task._fingerprint(colors)


class TestSolveSignature:
    """The solve memo's key: ``AutoTask._fingerprint`` numbered within
    the launch."""

    def test_fresh_regions_share_signatures(self, rt):
        """Iterative-solver shape: fresh uids, identical structure --
        one entry, hit by the second launch."""
        def key():
            a = Store.create((10,), np.float64, runtime=rt)
            b = Store.create((10,), np.float64, runtime=rt)
            a.set_key_partition(Tiling(a.region, (0, 5, 10)))
            return memo_key(rt, a, b, setup=lambda t: t.add_alignment_constraint(a, b))

        s1, s2 = key(), key()
        assert s1 is not None and s1 == s2
        counters = rt.profiler.fastpath_counters
        for _ in range(2):
            out = Store.create((10,), np.float64, runtime=rt)
            inp = Store.create((10,), np.float64, data=np.arange(10.0), runtime=rt)
            _copy_task(rt, out, inp).execute()
            np.testing.assert_array_equal(out.data, np.arange(10.0))
        assert (counters["solve_misses"], counters["solve_hits"]) == (1, 1)
        assert len(rt._templates) == 1

    def test_repartition_changes_signature(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Tiling(a.region, (0, 5, 10)))
        s1 = memo_key(rt, a)
        a.set_key_partition(Tiling(a.region, (0, 7, 10)))
        s2 = memo_key(rt, a)
        assert s1 is not None and s2 is not None and s1 != s2

    def test_nbytes_distinguishes_largest_member(self, rt):
        a32 = Store.create((10,), np.float32, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        a64 = Store.create((10,), np.float64, runtime=rt)
        c = Store.create((10,), np.float64, runtime=rt)
        s1 = memo_key(rt, a32, b, setup=lambda t: t.add_alignment_constraint(a32, b))
        s2 = memo_key(rt, a64, c, setup=lambda t: t.add_alignment_constraint(a64, c))
        assert s1 != s2  # the solver picks the largest member's key

    def test_foreign_key_partition_is_uid_pinned(self, rt):
        def keyed_by(other):
            a = Store.create((10,), np.float64, runtime=rt)
            a.set_key_partition(Tiling(other.region, (0, 5, 10)))
            return memo_key(rt, a)

        first = Store.create((10,), np.float64, runtime=rt)
        second = Store.create((10,), np.float64, runtime=rt)
        assert keyed_by(first) is not None
        assert keyed_by(first) == keyed_by(first)
        assert keyed_by(first) != keyed_by(second)
        assert first.region.uid in keyed_by(first)[4][0][5]

    def test_image_and_explicit_not_memoizable(self, rt):
        src = Store.create((10,), np.int64, runtime=rt)
        dst = Store.create((10,), np.float64, runtime=rt)
        assert memo_key(
            rt, src, dst, setup=lambda t: t.add_image_constraint(src, dst)
        ) is None
        part = Tiling.create(dst.region, 2)
        assert memo_key(
            rt, dst, setup=lambda t: t.add_explicit_partition(dst, part)
        ) is None

    def test_non_tiling_key_partition_not_memoizable(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Replicate(a.region, 2))
        assert memo_key(rt, a) is None

    def test_colors_change_the_key(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        assert memo_key(rt, a, colors=4) != memo_key(rt, a, colors=2)


class TestSolutionPlan:
    def test_rebuild_matches_fresh_solve(self, rt):
        a = Store.create((12,), np.float64, runtime=rt)
        b = Store.create((12,), np.float64, runtime=rt)
        c = Store.create((1,), np.float64, runtime=rt)
        cons = [Align(a, b), Broadcast(c)]
        sol = solve_partitions([a, b, c], cons, colors=2)
        plan = solution_plan(sol, [a, b, c])
        assert plan is not None

        # Fresh stores, same structure (an iterative solver's next step).
        a2 = Store.create((12,), np.float64, runtime=rt)
        b2 = Store.create((12,), np.float64, runtime=rt)
        c2 = Store.create((1,), np.float64, runtime=rt)
        rebuilt = rebuild_solution(plan, [a2, b2, c2], colors=2)
        fresh = solve_partitions([a2, b2, c2], cons_for(a2, b2, c2), colors=2)
        for s_new in (a2, b2):
            got = rebuilt[s_new.region.uid]
            want = fresh[s_new.region.uid]
            assert type(got) is type(want) is Tiling
            assert got.boundaries == want.boundaries
            assert got.region is s_new.region
        assert type(rebuilt[c2.region.uid]) is Replicate

    def test_key_rows_return_the_store_key_object(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        kp = Tiling(a.region, (0, 5, 10))
        a.set_key_partition(kp)
        sol = solve_partitions([a], [], colors=2)
        plan = solution_plan(sol, [a])
        rebuilt = rebuild_solution(plan, [a], colors=2)
        assert rebuilt[a.region.uid] is kp

    def test_memo_entry_does_not_pin_regions(self, rt):
        """The steady-state regression: cached plans must hold no regions."""
        memo = BoundedMemo()
        a = Store.create((10,), np.float64, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        key = memo_key(rt, a, b, setup=lambda t: t.add_alignment_constraint(a, b))
        sol = solve_partitions([a, b], [Align(a, b)], colors=2)
        memo.put(key, solution_plan(sol, [a, b]))
        ref = weakref.ref(a.region)
        del a, b, sol
        gc.collect()
        assert ref() is None, "solve memo kept a region alive"
        assert len(memo) == 1  # the entry itself survives

    def test_memo_bounded(self):
        memo = BoundedMemo()
        for i in range(BoundedMemo.MAX_ENTRIES):
            memo.put(("sig", i), (("tile", 0, (0, 5, 10)),))
        memo.put(("sig", "overflow"), (("tile", 0, (0, 5, 10)),))
        assert len(memo) == 1


def cons_for(a, b, c):
    return [Align(a, b), Broadcast(c)]


# ----------------------------------------------------------------------
# Window-plan cache: keyed by the window's trace fingerprints
# ----------------------------------------------------------------------
class TestWindowPlanCache:
    @staticmethod
    def _alternate(monkeypatch, fused):
        """float32 and float64 windows of one shape, alternated outside
        any trace: the outputs, and the plans and nests they cost."""
        from repro.distal import codegen
        from repro.legion import fusion

        counts = {"plans": 0, "nests": 0}
        plan_window, generate_nest = fusion.plan_window, codegen.generate_nest

        def counted_plan(summaries):
            counts["plans"] += 1
            return plan_window(summaries)

        def counted_nest(plan):
            counts["nests"] += 1
            return generate_nest(plan)

        monkeypatch.setattr(fusion, "plan_window", counted_plan)
        monkeypatch.setattr(codegen, "generate_nest", counted_nest)
        runtime = Runtime(
            laptop().scope(ProcessorKind.GPU, 2),
            RuntimeConfig.legate(fusion=fused),
        )
        out = []
        with runtime_scope(runtime):
            xs = [
                rnp.array(np.linspace(0.1, 1.0, 64, dtype=dtype))
                for dtype in (np.float32, np.float64)
            ]
            runtime.barrier()
            counts.update(plans=0, nests=0)
            for _ in range(3):
                for x in xs:
                    y = (x * x + x) * x
                    runtime.barrier()
                    out.append(y.to_numpy())
        return out, counts

    def test_dtypes_key_their_own_plans_and_nests(self, monkeypatch):
        fused, counts = self._alternate(monkeypatch, True)
        eager, _ = self._alternate(monkeypatch, False)
        assert counts == {"plans": 2, "nests": 2}
        assert [y.dtype for y in fused[:2]] == [np.float32, np.float64]
        for got, want in zip(fused, eager):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_cache_is_bounded(self, monkeypatch):
        """Fused windows over many vector lengths: the cache stays at its
        bound, and the values are the unfused ones, bit for bit."""
        from repro.legion import fusion

        bound = 4
        monkeypatch.setattr(BoundedMemo, "MAX_ENTRIES", bound)
        plans = []
        plan_window = fusion.plan_window

        def counted_plan(summaries):
            plans.append(len(summaries))
            return plan_window(summaries)

        monkeypatch.setattr(fusion, "plan_window", counted_plan)

        def run(fused):
            runtime = Runtime(
                laptop().scope(ProcessorKind.GPU, 2),
                RuntimeConfig.legate(fusion=fused),
            )
            out, sizes = [], []
            with runtime_scope(runtime):
                for n in range(16, 16 + 3 * bound):
                    x = rnp.array(np.linspace(0.1, 1.0, n))
                    y = (x * x + x) * x
                    runtime.barrier()
                    out.append(y.to_numpy())
                    sizes.append(len(runtime._fusion_cache))
            return out, sizes

        fused, sizes = run(True)
        assert len(plans) == 3 * bound  # a distinct structure each
        assert 0 < max(sizes) <= bound
        eager, _ = run(False)
        for got, want in zip(fused, eager):
            np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Templates: one per structural key, traced or not
# ----------------------------------------------------------------------
class _Forgetful(BoundedMemo):
    """A template memo that keeps nothing: every launch derives its
    solve plan, window verdict and launch shape afresh."""

    def put(self, key, value):
        pass


@contextlib.contextmanager
def counting_shapes():
    """Count ``_LaunchShape`` builds while the block runs."""
    count = [0]
    real = runtime_module._LaunchShape

    class Counted(real):
        __slots__ = ()

        def __init__(self, *args):
            count[0] += 1
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime_module, "_LaunchShape", Counted)
        yield count


def _logged_runtime(forget=False, fraction=1.0):
    runtime = Runtime(
        laptop().scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(trace_replay_fraction=fraction),
    )
    if runtime.event_log is None:
        runtime.event_log = EventLog(name="templates")
    if forget:
        runtime._templates = _Forgetful()
    return runtime


def _digest(runtime, modeled, solution):
    digest = hashlib.sha256()
    for line in _canonical_log(runtime.event_log):
        digest.update(line.encode())
    digest.update(repr(modeled).encode())
    digest.update(solution.tobytes())
    return digest.hexdigest()


def _power_loop(fraction):
    """SpMV (image solves), a scalar reduction, fills and fused
    element-wise launches, four times over."""
    runtime = _logged_runtime(fraction=fraction)
    with counting_shapes() as builds, runtime_scope(runtime):
        A = sp.csr_matrix(poisson2d_scipy(8))
        x = rnp.ones(64)
        runtime.barrier()
        for _ in range(4):
            y = A @ x
            nrm = rnp.linalg.norm(y)
            x = y / nrm + rnp.ones(64) * 0.5
            # A convergence test: each iteration its own window, so
            # windows -- not only launches -- repeat.
            float(nrm)
        runtime.barrier()
    return runtime, builds[0]


def _shaped_templates(runtime):
    """Templates holding a launch shape: by key, and fused groups."""
    return sum(
        template.shape is not None
        for template in runtime._templates._entries.values()
    ) + sum(
        group.shape is not None
        for groups in runtime._fusion_cache._entries.values()
        for group in groups
    )


def test_traced_and_untraced_loops_share_one_shape_per_key():
    """Replays discounted (0.15) or charged in full (1.0, the untraced
    charge): the host path is one, shapes and all."""
    traced, traced_builds = _power_loop(0.15)
    plain, plain_builds = _power_loop(1.0)
    assert traced.profiler.launches_replayed > 0
    assert (
        traced.profiler.launches_replayed == plain.profiler.launches_replayed
    )
    assert traced.elapsed() < plain.elapsed()
    assert traced_builds == plain_builds == _shaped_templates(plain)
    assert plain_builds == _shaped_templates(traced)
    assert plain_builds < plain.profiler.tasks_launched // 2


def _repartition_program(forget):
    """Untraced AutoTask launches before and after x's key partition
    moves: a template must not outlive the partition it was made for."""
    runtime = _logged_runtime(forget)
    with runtime_scope(runtime):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        runtime.barrier()
        for step in range(3):
            if step == 2:
                x.store.set_key_partition(Tiling(x.store.region, (0, 10, 64)))
            x = A @ (x * 0.5)
        modeled = runtime.barrier()
        solution = x.to_numpy()
    return _digest(runtime, modeled, solution)


def test_untraced_templates_match_fresh_ones():
    assert _repartition_program(False) == _repartition_program(True)


def _image_program(forget):
    """SpMVs over two matrices of one shape and nnz whose images of x
    differ: one template each, or the staged halos are wrong."""
    import scipy.sparse

    runtime = _logged_runtime(forget)
    with runtime_scope(runtime):
        eye = scipy.sparse.identity(64, format="csr")
        flip = scipy.sparse.csr_matrix(eye.toarray()[::-1])
        mats = [sp.csr_matrix(eye), sp.csr_matrix(flip)]
        x = rnp.array(np.arange(64.0))
        runtime.barrier()
        for _ in range(2):
            for A in mats:
                x = A @ x
        modeled = runtime.barrier()
        solution = x.to_numpy()
    return _digest(runtime, modeled, solution)


def test_image_templates_match_fresh_ones():
    assert _image_program(False) == _image_program(True)


def _group_image_program(forget):
    """Windows of one structure -- an SpMV and the multiply that reads
    its output, fused -- over two matrices whose images of x differ:
    the window plan is shared, the fused launch's shape is not."""
    import scipy.sparse

    runtime = _logged_runtime(forget)
    if forget:
        runtime._fusion_cache = _Forgetful()
    with runtime_scope(runtime):
        eye = scipy.sparse.identity(64, format="csr")
        flip = scipy.sparse.csr_matrix(eye.toarray()[::-1])
        mats = [sp.csr_matrix(eye), sp.csr_matrix(flip)]
        x = rnp.array(np.arange(64.0))
        runtime.barrier()
        for _ in range(2):
            for A in mats:
                x = (A @ x) * 0.5
                runtime.barrier()
        modeled = runtime.barrier()
        solution = x.to_numpy()
    assert any(len(names) == 2 for names, _, _ in runtime.fusion_log)
    return _digest(runtime, modeled, solution)


def test_group_shapes_follow_the_images():
    assert _group_image_program(False) == _group_image_program(True)


def test_group_shape_reused_across_images_fails(monkeypatch):
    monkeypatch.setattr(
        runtime_module._LaunchShape, "fits", lambda self, task: True
    )
    with pytest.raises(AssertionError):
        test_group_shapes_follow_the_images()


# ----------------------------------------------------------------------
# Image-partition cache: epoch invalidation
# ----------------------------------------------------------------------
class TestImagePartitionCache:
    def _stores(self, rt, crd_vals):
        crd = Store.create(
            (len(crd_vals),), np.int64,
            data=np.asarray(crd_vals, dtype=np.int64), runtime=rt,
        )
        x = Store.create((8,), np.float64, runtime=rt)
        crd.set_key_partition(Tiling.create(crd.region, 2))
        return crd, x

    def test_hit_reproduces_geometry_without_reads(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        cons = [Image(crd, x, ImageKind.COORDINATE)]
        sol1 = solve_partitions([crd, x], cons, 2, image_cache=cache)
        assert len(cache) == 1
        sol2 = solve_partitions([crd, x], cons, 2, image_cache=cache)
        p1, p2 = sol1[x.region.uid], sol2[x.region.uid]
        assert p1 is not p2  # rebuilt object, cached geometry
        assert p1._rects == p2._rects
        uncached = solve_partitions([crd, x], cons, 2)
        assert uncached[x.region.uid]._rects == p2._rects

    def test_write_epoch_invalidates(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        cons = [Image(crd, x, ImageKind.COORDINATE)]
        before = solve_partitions([crd, x], cons, 2, image_cache=cache)
        # A task write to the source: new coordinates, bumped epoch
        # (the runtime bumps on every written requirement).
        crd.region.data[:] = np.asarray([2, 3, 4, 5], dtype=np.int64)
        cache.bump(crd.region.uid)
        after = solve_partitions([crd, x], cons, 2, image_cache=cache)
        assert before[x.region.uid]._rects != after[x.region.uid]._rects
        fresh = solve_partitions([crd, x], cons, 2)
        assert fresh[x.region.uid]._rects == after[x.region.uid]._rects

    def test_values_hold_no_partition_objects(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        solve_partitions(
            [crd, x], [Image(crd, x, ImageKind.COORDINATE)], 2, image_cache=cache,
        )
        def flat(v):
            if isinstance(v, (tuple, list)):
                for item in v:
                    yield from flat(item)
            else:
                yield v
        for value in cache._entries.values():
            for leaf in flat(value):
                assert isinstance(leaf, (Rect, int)), leaf

    def test_freed_regions_drop_their_epochs(self, rt):
        """A long create/write/free loop leaves no more epochs than live
        regions, and an image over a live source still hits."""
        cache = rt._image_cache
        crd, x = self._stores(rt, [0, 1, 6, 7])
        cons = [Image(crd, x, ImageKind.COORDINATE)]
        cache.bump(crd.region.uid)
        before = solve_partitions([crd, x], cons, 2, image_cache=cache)
        for _ in range(1000):
            y = rnp.ones(8) * 2.0
        rt.barrier()
        del y
        gc.collect()
        assert len(cache.epochs) <= len(rt._coherence)
        assert cache.epochs[crd.region.uid] == 1
        # Rewritten without an epoch bump: only a hit still returns the
        # geometry cached before the loop.
        crd.region.data[:] = np.asarray([2, 3, 4, 5], dtype=np.int64)
        after = solve_partitions([crd, x], cons, 2, image_cache=cache)
        assert after[x.region.uid]._rects == before[x.region.uid]._rects
        fresh = solve_partitions([crd, x], cons, 2)
        assert fresh[x.region.uid]._rects != before[x.region.uid]._rects


# ----------------------------------------------------------------------
# Batched-write eligibility
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, requirements):
        self.requirements = requirements


class TestEligibleWriteReqs:
    def _region_and_tiling(self, rt, n=10, colors=2):
        s = Store.create((n,), np.float64, runtime=rt)
        return s.region, Tiling.create(s.region, colors)

    def test_single_tiled_writer_is_eligible(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("out", region, part, Privilege.WRITE_DISCARD),
        ])
        assert set(eligible_write_reqs(task, False, set())) == {"out"}

    def test_aligned_read_companion_allowed(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("in", region, part, Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert set(eligible_write_reqs(task, False, set())) == {"out"}

    def test_misaligned_read_companion_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        other = Tiling(region, (0, 3, 10))
        task = _FakeTask([
            Requirement("in", region, other, Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_replicate_companion_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("in", region, Replicate(region, 2), Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_two_writers_block(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("a", region, part, Privilege.WRITE),
            Requirement("b", region, part, Privilege.WRITE_DISCARD),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_reduce_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("acc", region, part, Privilege.REDUCE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_foreign_region_tiling_blocks(self, rt):
        region, _ = self._region_and_tiling(rt)
        other_region, other_part = self._region_and_tiling(rt)
        foreign = Tiling(other_region, other_part.boundaries)
        task = _FakeTask([
            Requirement("out", region, foreign, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_replay_of_freed_region_skipped(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, True, {region.uid}) == {}
        assert set(eligible_write_reqs(task, False, {region.uid})) == {"out"}
