"""Tests for automatic task fusion: the deferred launch window.

Covers the planner's legality rules in isolation, the runtime's window
mechanics (what defers, what flushes), temporary elision, bitwise
equivalence of fused vs. unfused execution, and composition with trace
capture/replay.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import (
    Future,
    Pointwise,
    Privilege,
    Replicate,
    Requirement,
    Runtime,
    RuntimeConfig,
    TaskLaunch,
    Tiling,
    Trace,
    fusion,
)
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture
def rt():
    machine = laptop()
    runtime = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(runtime):
        yield runtime


def region(uid):
    return SimpleNamespace(uid=uid)


def acc(uid, kind="tile", priv=Privilege.READ, boundaries=(0, 4, 8)):
    return fusion.Access(
        region(uid), kind, boundaries if kind == "tile" else None, priv
    )


def summ(name, *accesses, colors=2, fusible=True, reduction=None, after=()):
    return fusion.LaunchSummary(
        name, colors, fusible, tuple(accesses), None, reduction, after
    )


class TestPlanner:
    def test_compatible_run_fuses(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD), acc(2)),
            summ("b", acc(3, priv=Privilege.WRITE_DISCARD), acc(1)),
        ]
        (plan,) = fusion.plan_window(window)
        assert plan.indices == (0, 1)
        assert plan.fused

    def test_mismatched_boundaries_split(self):
        # One region named with two boundary sets: shard i of the two
        # launches touches different rows of it.
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("b", acc(2, priv=Privilege.WRITE_DISCARD, boundaries=(0, 3, 8)),
                 acc(1, boundaries=(0, 3, 8))),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,)]

    def test_disjoint_regions_align_per_region(self):
        # Different boundaries over regions the launches do not share:
        # one group, two segments.
        other = (0, 3, 8)
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("b", acc(2, priv=Privilege.WRITE_DISCARD, boundaries=other)),
            summ("c", acc(3, priv=Privilege.WRITE_DISCARD), acc(1)),
            summ("d", acc(4, priv=Privilege.WRITE_DISCARD, boundaries=other),
                 acc(2, boundaries=other)),
        ]
        (plan,) = fusion.plan_window(window)
        assert plan.indices == (0, 1, 2, 3)
        # Segments run in order of first member, members as issued.
        assert fusion.segments(window, plan.indices) == [(0, 2), (1, 3)]
        # Elision is per region, so it works inside each segment.
        ids = fusion.local_ids(window)
        assert plan.elide == frozenset({ids[1], ids[2]})

    def test_a_launch_of_two_boundary_sets_runs_alone(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("odd", acc(2, priv=Privilege.WRITE_DISCARD),
                 acc(3, boundaries=(0, 3, 8))),
            summ("b", acc(4, priv=Privilege.WRITE_DISCARD)),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,), (2,)]

    def test_mismatched_colors_split(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("b", acc(2, priv=Privilege.WRITE_DISCARD), colors=4),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,)]

    def test_nonfusible_breaks_run(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("spmv", acc(2, kind="other"), fusible=False),
            summ("b", acc(3, priv=Privilege.WRITE_DISCARD)),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,), (2,)]

    def test_replicate_read_after_group_write_splits(self):
        window = [
            summ("w", acc(1, priv=Privilege.WRITE_DISCARD)),
            summ("r", acc(2, priv=Privilege.WRITE_DISCARD), acc(1, kind="rep")),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,)]

    def test_write_after_replicate_read_splits(self):
        window = [
            summ("r", acc(2, priv=Privilege.WRITE_DISCARD), acc(1, kind="rep")),
            summ("w", acc(1, priv=Privilege.WRITE)),
        ]
        plans = fusion.plan_window(window)
        assert [p.indices for p in plans] == [(0,), (1,)]

    def test_replicate_read_of_unwritten_region_fuses(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD), acc(9, kind="rep")),
            summ("b", acc(2, priv=Privilege.WRITE_DISCARD), acc(9, kind="rep")),
        ]
        (plan,) = fusion.plan_window(window)
        assert plan.indices == (0, 1)

    def test_temporary_elided(self):
        # t = f(x); y = g(t): t is produced and consumed inside the group.
        window = [
            summ("f", acc(5, priv=Privilege.WRITE_DISCARD), acc(1)),
            summ("g", acc(6, priv=Privilege.WRITE_DISCARD), acc(5)),
        ]
        ids = fusion.local_ids(window)
        (plan,) = fusion.plan_window(window)
        assert plan.elide == frozenset({ids[5]})

    def test_input_not_elided(self):
        # x is read first: it pre-exists the group, so it must be mapped.
        window = [
            summ("f", acc(5, priv=Privilege.WRITE_DISCARD), acc(1)),
            summ("g", acc(6, priv=Privilege.WRITE_DISCARD), acc(1)),
        ]
        (plan,) = fusion.plan_window(window)
        assert plan.elide == frozenset()

    def test_signature_is_structural(self):
        """Windows over different regions with the same access pattern
        share a signature — the memoization key."""
        w1 = [
            summ("f", acc(10, priv=Privilege.WRITE_DISCARD), acc(11)),
            summ("g", acc(12, priv=Privilege.WRITE_DISCARD), acc(10)),
        ]
        w2 = [
            summ("f", acc(70, priv=Privilege.WRITE_DISCARD), acc(71)),
            summ("g", acc(72, priv=Privilege.WRITE_DISCARD), acc(70)),
        ]
        assert fusion.signature(w1) == fusion.signature(w2)
        assert fusion.signature(w1) != fusion.signature(list(reversed(w2)))

    def test_fused_name_truncates(self):
        name = fusion.fused_name(["x" * 200, "y"])
        assert name.startswith("fused{2}:")
        assert len(name) <= len("fused{2}:") + fusion.MAX_FUSED_NAME


W, R = Privilege.WRITE, Privilege.READ


def groups(window):
    return [plan.indices for plan in fusion.plan_window(window)]


class TestReductionPlanning:
    """Rules 5 and 6 of the planner: the reduction constraint and the
    hoist.  Regions: x=1, r=2, p=3, z=4, q=5."""

    def test_a_reduction_joins_the_run_it_reads_from(self):
        window = [
            summ("r-=", acc(2, priv=W), acc(5)),
            summ("vdot", acc(2), acc(4), reduction="sum"),
        ]
        assert groups(window) == [(0, 1)]

    def test_a_consumer_never_shares_its_producers_group(self):
        window = [
            summ("vdot", acc(2), acc(4), reduction="sum"),
            summ("p=", acc(3, priv=W), acc(4), after=(0,)),
            summ("q=", acc(5, priv=W), acc(3)),  # no edge: joins the consumer
        ]
        assert groups(window) == [(0,), (1, 2)]

    def test_the_cg_tail_hoists_the_norm_beside_the_vdot(self):
        window = [
            summ("x+=", acc(1, priv=W), acc(3)),
            summ("r-=", acc(2, priv=W), acc(5)),
            summ("vdot", acc(2), acc(4), reduction="sum"),
            summ("p=", acc(3, priv=W), acc(4), after=(2,)),
            summ("norm", acc(2), reduction="sum"),
        ]
        assert groups(window) == [(0, 1, 2, 4), (3,)]

    def test_a_writer_in_between_blocks_the_hoist(self):
        window = [
            summ("r-=", acc(2, priv=W), acc(5)),
            summ("vdot", acc(2), acc(4), reduction="sum"),
            summ("r*=", acc(2, priv=W), after=(1,)),  # rewrites r
            summ("norm", acc(2), reduction="sum"),
        ]
        assert groups(window) == [(0, 1), (2, 3)]

    def test_a_reduction_taking_a_future_stays_behind_its_producer(self):
        window = [
            summ("x+=", acc(1, priv=W), acc(3)),
            summ("vdot", acc(2), acc(4), reduction="sum"),
            summ("p=", acc(3, priv=W), acc(4), after=(1,)),
            summ("scaled-sum", acc(2), reduction="sum", after=(1,)),
        ]
        assert groups(window) == [(0, 1), (2, 3)]

    def test_the_hoist_passes_a_group_it_cannot_join(self):
        window = [
            summ("x+=", acc(1, priv=W), acc(3)),
            summ("y=", acc(7, priv=W), colors=4),
            summ("sum(x)", acc(1), reduction="sum"),
            summ("sum(y)", acc(7), reduction="max", colors=4),
        ]
        assert groups(window) == [(0, 2), (1, 3)]

    def test_other_boundaries_over_other_regions_share_the_group(self):
        other = (0, 3, 8)
        window = [
            summ("x+=", acc(1, priv=W), acc(3)),
            summ("y=", acc(7, priv=W, boundaries=other)),
            summ("sum(x)", acc(1), reduction="sum"),
            summ("sum(y)", acc(7, boundaries=other), reduction="max"),
        ]
        assert groups(window) == [(0, 1, 2, 3)]
        assert fusion.segments(window, (0, 1, 2, 3)) == [(0, 2), (1, 3)]

    def test_the_latest_earlier_group_wins(self):
        window = [
            summ("a", acc(1, priv=W)),
            summ("s0", acc(1), reduction="sum"),
            summ("b", acc(3, priv=W), after=(1,)),
            summ("s1", acc(3), reduction="sum"),
            summ("c", acc(5, priv=W), after=(3,)),
            summ("norm(q)", acc(9), reduction="sum"),  # reads nothing written
        ]
        # Groups {a, s0} | {b, s1} | {c}: the norm joins the middle one.
        assert groups(window) == [(0, 1), (2, 3, 5), (4,)]

    def test_a_reduction_that_writes_or_replicates_is_not_admitted(self):
        tiling = fusion.Tiling.__new__(fusion.Tiling)
        tiling.boundaries = (0, 4, 8)
        replicate = fusion.Replicate.__new__(fusion.Replicate)
        marker = object()
        for access in (
            ("out", region(1), tiling, W),
            ("a", region(1), replicate, R),
        ):
            summary = fusion.summarize(
                "red", 2, [access], pointwise=marker, reduction="sum"
            )
            assert not summary.fusible
        ok = fusion.summarize(
            "red", 2, [("a", region(1), tiling, R)],
            pointwise=marker, reduction="sum",
        )
        assert ok.fusible and ok.reduction == "sum"
        assert not fusion.summarize(
            "red", 2, [("a", region(1), tiling, R)], reduction="sum"
        ).fusible  # no Pointwise marker: stays eager (scan_local)

    def test_signature_carries_ops_and_edges(self):
        base = [
            summ("vdot", acc(2), acc(4), reduction="sum"),
            summ("p=", acc(3, priv=W), acc(4), after=(0,)),
        ]
        no_edge = [base[0], summ("p=", acc(3, priv=W), acc(4))]
        other_op = [summ("vdot", acc(2), acc(4), reduction="max"), base[1]]
        keys = {fusion.signature(w) for w in (base, no_edge, other_op)}
        assert len(keys) == 3


class TestWindowMechanics:
    def test_pointwise_launch_defers(self, rt):
        a = rnp.ones(64)
        assert len(rt._window) >= 1  # the fill is buffered, not executed
        b = a * 2.0
        assert any("multiply" in t.name for t in rt._window)
        rt.barrier()
        assert rt._window == []
        np.testing.assert_array_equal(b.to_numpy(), np.full(64, 2.0))

    def test_barrier_flushes_and_fuses(self, rt):
        snap = rt.profiler.snapshot()
        a = rnp.ones(64)
        b = a * 2.0
        rt.barrier()
        delta = rt.profiler.since(snap)
        assert delta.fused_tasks == 1
        assert delta.tasks_fused_away == 1
        assert rt.fusion_log[-1][0] == ("fill", "multiply")

    def test_window_overflow_flushes(self, rt):
        x = rnp.ones(32)
        rt.barrier()
        before = len(rt.fusion_log)
        for _ in range(rt.config.fusion_window + 1):
            x = x + 1.0
        assert len(rt.fusion_log) > before  # overflow forced a flush
        assert len(rt._window) >= 1  # the remainder is still deferred

    def test_nonfusible_launch_flushes_first(self, rt):
        A = sp.eye(32, format="csr")
        x = rnp.ones(32)
        y = A @ x  # reads the x the window still owes: flushes, then runs
        assert any("fill" in names for names, _, _ in rt.fusion_log)
        assert rt.profiler.hazard_flushes == 1
        np.testing.assert_array_equal(y.to_numpy(), np.ones(32))

    def test_independent_launch_passes_the_window(self, rt):
        A = sp.eye(32, format="csr")
        x = rnp.array(np.arange(32.0))
        u = rnp.array(np.ones(16))
        rt.barrier()
        snap = rt.profiler.snapshot()
        v = u * 3.0                 # deferred
        y = A @ x                   # touches nothing the window does
        assert [t.name for t in rt._window] == ["multiply"]
        w = v + 1.0                 # joins the launch the SpMV passed
        rt.barrier()
        delta = rt.profiler.since(snap)
        assert (delta.launches_passed, delta.hazard_flushes) == (1, 0)
        assert rt.fusion_log[-1][0] == ("multiply", "add")
        np.testing.assert_array_equal(y.to_numpy(), np.arange(32.0))
        np.testing.assert_array_equal(w.to_numpy(), np.full(16, 4.0))
        assert "1 launches passed" in rt.profiler.format_summary()

    def test_a_write_after_a_deferred_read_flushes(self, rt):
        a = rnp.array(np.arange(16.0))
        rt.barrier()
        b = a + 1.0                 # deferred reader of a
        a[2:5] = 100.0              # non-fusible WRITE into a
        assert rt._window == [] and rt.profiler.hazard_flushes == 1
        np.testing.assert_array_equal(b.to_numpy(), np.arange(16.0) + 1.0)

    def test_a_reduce_into_a_deferred_fill_flushes(self, rt):
        A = sp.eye(16, format="csr")
        rt.barrier()
        sums = A.sum(axis=0)        # zero fill (deferred), then a REDUCE
        assert rt.profiler.hazard_flushes == 1
        np.testing.assert_array_equal(sums.to_numpy(), np.ones(16))

    def test_a_scalar_the_window_owes_flushes(self, rt):
        a = rnp.array(np.arange(16.0))
        b = rnp.array(np.zeros(16))
        rt.barrier()
        total = rnp.sum(a)          # pending in the window
        b[0:4] = total              # non-fusible consumer of the future
        assert rt._window == [] and rt.profiler.hazard_flushes == 1
        assert b.to_numpy()[:5].tolist() == [120.0] * 4 + [0.0]

    def test_one_hazard_test_per_launch(self, rt, monkeypatch):
        """Asked once -- by AutoTask.execute before its solve, or by
        launch() -- and never for a launch that joins the window."""
        calls = []
        real = Runtime.pass_window

        def counted(self, accesses, scalars):
            calls.append(len(self._window))
            return real(self, accesses, scalars)

        monkeypatch.setattr(Runtime, "pass_window", counted)
        flushes = []
        real_flush = Runtime.flush_window

        def counted_flush(self):
            flushes.append(len(self._window))
            return real_flush(self)

        monkeypatch.setattr(Runtime, "flush_window", counted_flush)
        A = sp.eye(32, format="csr")
        x = rnp.array(np.arange(32.0))
        rt.barrier()
        del calls[:], flushes[:]
        z = x * 2.0                 # fusible: no test
        assert calls == []
        y = A @ z                   # image-constrained: AutoTask asks
        assert calls == [1] and flushes == [1]
        region = rt.create_region((8,), np.float64, name="r")
        task = TaskLaunch(          # hand-built, not fusible: launch() asks
            "opaque",
            [Requirement("r", region, Tiling.create(region, 2),
                         Privilege.WRITE_DISCARD)],
            kernel=lambda ctx: None,
        )
        w = z + 1.0
        rt.launch(task)
        assert calls == [1, 1] and flushes == [1]  # passed: no flush
        np.testing.assert_array_equal(y.to_numpy(), np.arange(32.0) * 2.0)
        np.testing.assert_array_equal(w.to_numpy(), np.arange(32.0) * 2.0 + 1.0)

    def test_store_data_syncs(self, rt):
        a = rnp.ones(16)
        b = a + 3.0
        np.testing.assert_array_equal(b.store.data, np.full(16, 4.0))
        assert rt._window == []

    def test_scope_exit_flushes(self):
        machine = laptop()
        runtime = Runtime(
            machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate()
        )
        with runtime_scope(runtime):
            a = rnp.ones(16)
            b = a * 5.0
        assert runtime._window == []
        np.testing.assert_array_equal(b.to_numpy(), np.full(16, 5.0))

    def test_fusion_off_is_eager(self):
        machine = laptop()
        runtime = Runtime(
            machine.scope(ProcessorKind.GPU, 2),
            RuntimeConfig.legate(fusion=False),
        )
        with runtime_scope(runtime):
            snap = runtime.profiler.snapshot()
            a = rnp.ones(16)
            assert runtime._window == []
            b = a * 2.0
            delta = runtime.profiler.since(snap)
            assert delta.tasks_launched == 2
            assert delta.fused_tasks == 0
            assert runtime.fusion_log == []

    def test_accelerated_presets_disable_fusion(self):
        assert RuntimeConfig.legate().fusion
        assert not RuntimeConfig.cupy().fusion
        assert not RuntimeConfig.scipy().fusion

    def test_elision_counted_and_cached(self, rt):
        x = rnp.array(np.arange(16.0))
        rt.barrier()

        def chain(v):
            snap = rt.profiler.snapshot()
            t = v * 2.0  # temporary: produced and consumed in-window
            out = t + 1.0
            rt.barrier()
            return out, rt.profiler.since(snap)

        out, delta = chain(x)
        assert delta.fused_tasks == 1
        assert delta.regions_elided >= 1
        np.testing.assert_array_equal(out.to_numpy(), np.arange(16.0) * 2.0 + 1.0)
        # Same window shape again: the plan comes from the cache and the
        # counters move identically.
        cached = len(rt._fusion_cache)
        out2, delta2 = chain(out)
        assert len(rt._fusion_cache) == cached
        assert delta2.fused_tasks == delta.fused_tasks
        assert delta2.regions_elided == delta.regions_elided

    def test_elided_temporary_maps_no_instance(self, rt):
        x = rnp.array(np.ones(64))
        rt.barrier()
        mem = rt.scope.processors[0].memory
        used_before = rt.instances.used_bytes(mem)
        t = x * 2.0
        y = t + 1.0
        rt.barrier()
        used_after = rt.instances.used_bytes(mem)
        # x's shard is staged in and y's shard is mapped (256 B each on
        # this GPU); the temporary t never gets an instance (768 B if
        # it did).
        assert used_after - used_before == pytest.approx(2 * 32 * 8)
        np.testing.assert_array_equal(y.to_numpy(), np.full(64, 3.0))


class TestManualFuse:
    def test_fused_kernel_is_bitwise_identical(self, rt):
        rng = np.random.default_rng(7)
        data = rng.random(100)
        inp = rt.create_region((100,), np.float64, data=data.copy())
        mid = rt.create_region((100,), np.float64)
        out = rt.create_region((100,), np.float64)

        def times2(ctx):
            ctx.view("o")[...] = 2.0 * ctx.view("i")

        def plus1(ctx):
            ctx.view("o")[...] = ctx.view("i") + 1.0

        def make(name, kernel, o, i):
            return TaskLaunch(
                name,
                [
                    Requirement(
                        "o", o, Tiling.create(o, 2), Privilege.WRITE_DISCARD
                    ),
                    Requirement("i", i, Tiling.create(i, 2), Privilege.READ),
                ],
                kernel,
                pointwise=Pointwise((name,)),
            )

        group = [make("times2", times2, mid, inp), make("plus1", plus1, out, mid)]
        merged = fusion.fuse(group, frozenset({mid.uid}))
        assert merged.name == "fused{2}:times2+plus1"
        assert [r.elide for r in merged.requirements] == [True, False, False, True]
        rt._execute(merged)
        np.testing.assert_array_equal(out.data, 2.0 * data + 1.0)

    def test_segments_run_in_turn_and_partials_keep_issue_order(self, rt):
        """Two segments, interleaved as issued: each runs on its own
        (here as a replay), in order of first member; the reductions'
        partials come back in issue order whatever the run order."""
        x = rt.create_region((10,), np.float64, data=np.arange(10.0))
        y = rt.create_region((6,), np.float64, data=np.ones(6))
        order = []

        def red(name, region, bounds, op):
            def kernel(ctx):
                order.append(name)
                return float(ctx.view("a").sum())

            return TaskLaunch(
                name,
                [Requirement("a", region, Tiling(region, bounds), Privilege.READ)],
                kernel, reduction=op, pointwise=Pointwise((name,)),
                future=Future.pending(rt),
            )

        group = [
            red("sx", x, (0, 5, 10), "sum"),
            red("sy", y, (0, 2, 6), "sum"),
            red("mx", x, (0, 5, 10), "max"),
        ]
        merged = fusion.fuse(group, parts=[((0, 2), None), ((1,), None)])
        assert merged.reduction == ("sum", "sum", "max")
        rt._execute(merged)
        assert order == ["sx", "mx", "sy"] * 2  # per shard: segment by segment
        assert [t.future.value for t in group] == [45.0, 6.0, 35.0]

    def test_rep_read_requirement_survives_fuse(self, rt):
        inp = rt.create_region((8,), np.float64, data=np.arange(8.0))
        out = rt.create_region((8,), np.float64)

        def bcast_sum(ctx):
            ctx.view("o")[...] = ctx.view("i").sum()

        task = TaskLaunch(
            "bsum",
            [
                Requirement(
                    "o", out, Tiling.create(out, 2), Privilege.WRITE_DISCARD
                ),
                Requirement("i", inp, Replicate(inp, 2), Privilege.READ),
            ],
            bcast_sum,
            pointwise=Pointwise(("bsum",)),
        )
        merged = fusion.fuse([task, task], frozenset())
        rt._execute(merged)
        np.testing.assert_array_equal(out.data, np.full(8, 28.0))


def _cg_workload():
    from repro.apps.poisson import poisson2d_scipy

    A = sp.csr_matrix(poisson2d_scipy(12))
    b = rnp.ones(A.shape[0])
    x, info = sp.linalg.cg(A, b, rtol=0.0, maxiter=5)
    return x, info


def _run(workload, fused: bool, validate: bool = False):
    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(fusion=fused, validate=validate),
    )
    with runtime_scope(runtime):
        result = workload()
        runtime.barrier()
    return result, runtime


class TestBitwiseEquivalence:
    def test_cg_identical(self):
        (x_fused, info_f), rt_f = _run(_cg_workload, fused=True)
        (x_eager, info_e), rt_e = _run(_cg_workload, fused=False)
        assert info_f == info_e
        np.testing.assert_array_equal(x_fused.to_numpy(), x_eager.to_numpy())
        assert rt_f.profiler.fused_tasks > 0

    def test_cg_fewer_launches_lower_overhead(self):
        _, rt_f = _run(_cg_workload, fused=True)
        _, rt_e = _run(_cg_workload, fused=False)
        assert rt_f.profiler.tasks_launched <= 0.7 * rt_e.profiler.tasks_launched
        assert (
            rt_f.profiler.launch_overhead_seconds
            < rt_e.profiler.launch_overhead_seconds
        )

    def test_lazy_chain_identical(self):
        def workload():
            xs = np.linspace(0.0, 1.0, 200)
            x = rnp.array(xs.copy())
            b = rnp.array(np.cos(xs))
            y = (x * 2.0 + b) * b - x / (b + 2.0)
            return y.to_numpy()

        y_fused, _ = _run(workload, fused=True)
        y_eager, _ = _run(workload, fused=False)
        np.testing.assert_array_equal(y_fused, y_eager)

    def test_event_log_identical_modulo_elided(self):
        """Fused runs move no *more* data and the same data classes;
        the only copies that disappear are those for elided temporaries
        and merged staging."""
        (x_f, _), rt_f = _run(_cg_workload, fused=True, validate=True)
        (x_e, _), rt_e = _run(_cg_workload, fused=False, validate=True)
        np.testing.assert_array_equal(x_f.to_numpy(), x_e.to_numpy())
        from repro.analysis.events import AllreduceEvent, CopyEvent

        fused_copies = [
            e for e in rt_f.event_log.events if isinstance(e, CopyEvent)
        ]
        eager_copies = [
            e for e in rt_e.event_log.events if isinstance(e, CopyEvent)
        ]
        assert len(fused_copies) <= len(eager_copies)
        assert sum(e.nbytes for e in fused_copies) <= sum(
            e.nbytes for e in eager_copies
        )
        # Every scalar reduction (CG's dots and norms) is still
        # reduced, over the same shards; the ones that share a fused
        # group share one allreduce ("sum+sum").
        fused_all = [
            (op, e.participants)
            for e in rt_f.event_log.events
            if isinstance(e, AllreduceEvent)
            for op in e.op.split("+")
        ]
        eager_all = [
            (e.op, e.participants)
            for e in rt_e.event_log.events
            if isinstance(e, AllreduceEvent)
        ]
        assert fused_all == eager_all
        assert rt_f.profiler.allreduces < rt_e.profiler.allreduces


class TestTraceComposition:
    def test_fused_window_replays(self, rt):
        """Launches are matched when issued, so a fused loop body still
        captures once and replays thereafter -- and a scope boundary
        never flushes: the four bodies fuse as the untraced loop does."""
        x = rnp.ones(64)
        rt.barrier()
        trace = Trace(rt, "axpy-loop")
        for _ in range(4):
            with trace:
                x = x * 0.5 + 1.0
        assert trace.captures == 1
        assert trace.replays == 3
        assert rt.profiler.fused_tasks == 0  # all eight still deferred
        rt.barrier()
        assert rt.profiler.fused_tasks == 1
        assert rt.profiler.tasks_fused_away == 7
