"""Integration-style tests for the runtime: tasks, copies, timing."""

import numpy as np
import pytest

from repro.analysis.events import ShardEvent
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
    fusion,
)
from repro.machine import ProcessorKind, laptop, summit


@pytest.fixture
def gpu2():
    machine = laptop()
    return Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())


def double_kernel(ctx):
    ctx.view("out")[...] = 2.0 * ctx.view("inp")


def launch_double(rt, out, inp, colors=2):
    rt.launch(
        TaskLaunch(
            "double",
            [
                Requirement("out", out, Tiling.create(out, colors), Privilege.WRITE_DISCARD),
                Requirement("inp", inp, Tiling.create(inp, colors), Privilege.READ),
            ],
            double_kernel,
        )
    )


class TestExecution:
    def test_numerics_exact(self, gpu2):
        inp = gpu2.create_region((100,), np.float64, data=np.arange(100.0))
        out = gpu2.create_region((100,), np.float64)
        launch_double(gpu2, out, inp)
        np.testing.assert_array_equal(out.data, 2.0 * np.arange(100.0))

    def test_time_advances(self, gpu2):
        inp = gpu2.create_region((100,), np.float64, data=np.arange(100.0))
        out = gpu2.create_region((100,), np.float64)
        t0 = gpu2.elapsed()
        launch_double(gpu2, out, inp)
        assert gpu2.elapsed() > t0

    def test_host_data_staged_once(self, gpu2):
        inp = gpu2.create_region((100,), np.float64, data=np.arange(100.0))
        out = gpu2.create_region((100,), np.float64)
        launch_double(gpu2, out, inp)
        first = gpu2.profiler.total_copy_bytes("nvlink")
        assert first == 100 * 8  # both halves staged from host sysmem
        launch_double(gpu2, out, inp)
        # Data now resident on the GPUs: no further copies.
        assert gpu2.profiler.total_copy_bytes("nvlink") == first

    def test_write_invalidates_remote_copy(self, gpu2):
        a = gpu2.create_region((64,), np.float64, data=np.ones(64))
        b = gpu2.create_region((64,), np.float64)
        launch_double(gpu2, b, a)
        # Write a with one shard per GPU, then broadcast-read it on both:
        # each GPU must fetch the other's half.
        rt = gpu2

        def bump(ctx):
            ctx.view("out")[...] += 1.0

        rt.launch(
            TaskLaunch(
                "bump",
                [Requirement("out", a, Tiling.create(a, 2), Privilege.WRITE)],
                bump,
            )
        )
        snap = rt.profiler.snapshot()

        def read_all(ctx):
            assert ctx.view("inp").shape == (64,)

        rt.launch(
            TaskLaunch(
                "readall",
                [Requirement("inp", a, Replicate(a, 2), Privilege.READ)],
                read_all,
            )
        )
        delta = rt.profiler.since(snap)
        # Each GPU pulls the 32 elements it does not own.
        assert delta.total_copy_bytes("nvlink") == 2 * 32 * 8

    def test_scalar_future_gates_start(self, gpu2):
        inp = gpu2.create_region((10,), np.float64, data=np.zeros(10))
        out = gpu2.create_region((10,), np.float64)
        late = Future(3.0, ready_time=1.0)  # one simulated second away

        def add_scalar(ctx):
            ctx.view("out")[...] = ctx.view("inp") + ctx.scalar("c")

        gpu2.launch(
            TaskLaunch(
                "addc",
                [
                    Requirement("out", out, Tiling.create(out, 2), Privilege.WRITE_DISCARD),
                    Requirement("inp", inp, Tiling.create(inp, 2), Privilege.READ),
                ],
                add_scalar,
                scalars={"c": late},
            )
        )
        assert out.data[0] == 3.0
        assert gpu2.elapsed() >= 1.0

    def test_launch_overhead_accumulates(self):
        machine = laptop()
        # Charged in full: the ten launches repeat, which would make
        # all but the first replays.
        slow = Runtime(
            machine.scope(ProcessorKind.GPU, 1),
            RuntimeConfig.legate(launch_overhead=1e-3, trace_replay_fraction=1.0),
        )
        fast = Runtime(
            machine.scope(ProcessorKind.GPU, 1),
            RuntimeConfig.cupy(launch_overhead=1e-6),
        )
        for rt in (slow, fast):
            inp = rt.create_region((8,), np.float64, data=np.ones(8))
            out = rt.create_region((8,), np.float64)
            for _ in range(10):
                launch_double(rt, out, inp, colors=1)
        assert slow.elapsed() > fast.elapsed() * 50

    def test_data_scale_magnifies_time(self):
        machine = laptop()
        times = []
        for scale in (1.0, 1000.0):
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, 2),
                RuntimeConfig.legate(data_scale=scale, launch_overhead=0.0),
            )
            inp = rt.create_region((1000,), np.float64, data=np.ones(1000))
            out = rt.create_region((1000,), np.float64)
            launch_double(rt, out, inp)
            times.append(rt.elapsed())
        assert times[1] > times[0]


class TestReduceFold:
    def test_scatter_add_folds_to_owners(self, gpu2):
        rt = gpu2
        y = rt.create_region((8,), np.float64)
        contrib = rt.create_region((8,), np.float64, data=np.ones(8))

        def scatter(ctx):
            # Both shards add into the whole of y (aliased REDUCE).
            ctx.arrays["y"][...] += ctx.view("c").sum() / 8.0

        rt.launch(
            TaskLaunch(
                "scatter",
                [
                    Requirement("y", y, Replicate(y, 2), Privilege.REDUCE),
                    Requirement("c", contrib, Tiling.create(contrib, 2), Privilege.READ),
                ],
                scatter,
            )
        )
        np.testing.assert_allclose(y.data, np.ones(8))
        # Fold copies crossed the GPU-GPU link.
        assert rt.profiler.total_copies("nvlink") > 0


class TestSyncClock:
    def test_trailing_copy_counted_by_sync_points(self, gpu2):
        """elapsed()/barrier() must see channel occupancy: a run whose
        final operation is a copy (an async checkpoint snapshot here)
        is longer than max(issue, procs) says."""
        rt = gpu2
        inp = rt.create_region((4096,), np.float64, data=np.arange(4096.0))
        out = rt.create_region((4096,), np.float64)
        launch_double(rt, out, inp)
        rt.recovery.checkpoint()  # snapshot of `out` drains on the channels
        legacy = max(rt.issue_time, max(rt._proc_busy.values()))
        horizon = rt.machine.channel_horizon()
        assert horizon > legacy
        assert rt.elapsed() == horizon
        assert rt.barrier() == horizon
        assert rt.issue_time == horizon  # barrier waited for the drain


class TestAllreduce:
    def test_value_correct(self, gpu2):
        fut = gpu2.allreduce([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert fut.value == 6.0

    def test_a_one_shard_fold_is_ready_with_its_shard(self):
        """A one-color launch is a single task: its future is the
        shard's return value, ready when the shard finishes, with no
        collective charged.  The fold is still counted and logged, with
        one participant."""
        rt = Runtime(
            laptop().scope(ProcessorKind.GPU, 2),
            RuntimeConfig.legate(validate=True),
        )
        assert rt.allreduce([5.0], [1.0]).ready_time == 1.0
        x = rt.create_region((8,), np.float64, data=np.arange(8.0))
        before = rt.profiler.allreduces
        future = rt.launch(
            TaskLaunch(
                "sum",
                [Requirement("x", x, Tiling.create(x, 1), Privilege.READ)],
                lambda ctx: float(ctx.view("x").sum()),
                reduction="sum",
            )
        )
        (shard,) = [e for e in rt.event_log.events if isinstance(e, ShardEvent)]
        assert future.value == 28.0
        assert future.ready_time == shard.finish
        assert rt.profiler.allreduces == before + 1
        assert rt.event_log.events[-1].participants == 1

    def test_a_fused_groups_one_shard_partials_fold_by_their_own_ops(self, gpu2):
        x = gpu2.create_region((8,), np.float64, data=np.arange(8.0))
        y = gpu2.create_region((6,), np.float64, data=-np.arange(6.0))

        def red(name, region, op, fold):
            return TaskLaunch(
                name,
                [Requirement("a", region, Tiling.create(region, 1), Privilege.READ)],
                lambda ctx: fold(ctx.view("a")),
                reduction=op, pointwise=Pointwise((name,)),
                future=Future.pending(gpu2),
            )

        group = [
            red("sx", x, "sum", lambda a: float(a.sum())),
            red("my", y, "min", lambda a: float(a.min())),
            red("mx", x, "max", lambda a: float(a.max())),
        ]
        merged = fusion.fuse(group)
        assert merged.reduction == ("sum", "min", "max")
        before = gpu2.profiler.allreduces
        gpu2._execute(merged)
        assert [t.future.value for t in group] == [28.0, -5.0, 7.0]
        # One fold for the group, charged nothing past the shard.
        assert gpu2.profiler.allreduces == before + 1
        finish = max(gpu2._proc_busy.values())
        assert {t.future.ready_time for t in group} == {finish}

    def test_two_shards_pay_base_hop_and_linear(self, gpu2):
        config, machine = gpu2.config, gpu2.machine
        per_hop = (
            machine.interconnect_latency(gpu2.scope.nodes)
            + 8 / machine.config.nic_bandwidth
            + config.allreduce_hop_overhead
        )
        fut = gpu2.allreduce([1.0, 2.0], [0.5, 1.0])
        assert fut.value == 3.0
        assert fut.ready_time == pytest.approx(
            1.0
            + config.allreduce_base_overhead
            + per_hop
            + 2 * config.allreduce_linear_overhead,
            rel=1e-12,
        )

    def test_latency_grows_with_participants(self):
        machine = summit(nodes=8)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 48), RuntimeConfig.legate())
        t2 = rt.allreduce([1.0] * 2, [0.0] * 2).ready_time
        t48 = rt.allreduce([1.0] * 48, [0.0] * 48).ready_time
        assert t48 > t2

    def test_ops(self, gpu2):
        assert gpu2.allreduce([3.0, 1.0], [0, 0], op="max").value == 3.0
        assert gpu2.allreduce([3.0, 1.0], [0, 0], op="min").value == 1.0
        with pytest.raises(ValueError):
            gpu2.allreduce([1.0], [0.0], op="median")

    def test_wait_advances_issue_clock(self, gpu2):
        fut = Future(1.0, ready_time=42.0)
        assert gpu2.wait(fut) == 1.0
        assert gpu2.issue_time >= 42.0


class TestWait:
    """When a wait flushes the deferred window: a wait that would stall
    the host flushes it first, and in a one-color scope a wait on a
    future resolved and ready by the issue clock leaves it deferred."""

    @staticmethod
    def _deferred(gpus=1, **config):
        """A runtime with one fusible launch pending in its window, and
        what has run so far: ``(rt, region, log length, launches)``."""
        rt = Runtime(
            laptop().scope(ProcessorKind.GPU, gpus),
            RuntimeConfig.legate(**config),
        )
        inp = rt.create_region((8,), np.float64, data=np.arange(8.0))
        out = rt.create_region((8,), np.float64)
        rt.launch(
            TaskLaunch(
                "double",
                [
                    Requirement("out", out, Tiling.create(out, gpus), Privilege.WRITE_DISCARD),
                    Requirement("inp", inp, Tiling.create(inp, gpus), Privilege.READ),
                ],
                double_kernel,
                pointwise=Pointwise(("double",)),
            )
        )
        return rt, out, len(rt.fusion_log), rt.profiler.tasks_launched

    def test_a_ready_future_leaves_the_window_deferred(self):
        rt, out, logged, launched = self._deferred()
        assert len(rt._window) == 1
        assert rt.wait(Future(3.0, ready_time=rt.issue_time)) == 3.0
        assert len(rt._window) == 1
        assert len(rt.fusion_log) == logged
        assert rt.profiler.tasks_launched == launched
        rt.barrier()
        assert len(rt.fusion_log) == logged + 1
        assert rt.profiler.tasks_launched == launched + 1
        np.testing.assert_array_equal(out.data, 2.0 * np.arange(8.0))

    def test_a_wait_that_stalls_flushes_then_advances_the_clock(self):
        rt, _out, _logged, launched = self._deferred()
        clock = rt.issue_time
        late = Future(3.0, ready_time=clock + 1.0)
        assert rt.wait(late) == 3.0
        assert not rt._window
        assert rt.profiler.tasks_launched == launched + 1
        # The launch issued at the clock the host had before it idled.
        assert max(rt._proc_busy.values()) < late.ready_time
        assert rt.issue_time == late.ready_time

    def test_a_pending_future_flushes(self):
        rt, _out, logged, _launched = self._deferred()
        x = rt.create_region((8,), np.float64, data=np.arange(8.0))
        pending = rt.launch(
            TaskLaunch(
                "sum",
                [Requirement("x", x, Tiling.create(x, 1), Privilege.READ)],
                lambda ctx: float(ctx.view("x").sum()),
                reduction="sum",
                pointwise=Pointwise(("sum",)),
            )
        )
        assert pending.roots is not None and len(rt._window) == 2
        assert rt.wait(pending) == 28.0
        assert not rt._window
        assert len(rt.fusion_log) > logged

    def test_at_two_colors_every_wait_flushes(self):
        rt, _out, _logged, launched = self._deferred(gpus=2)
        rt.wait(Future(3.0, ready_time=rt.issue_time))
        assert not rt._window
        assert rt.profiler.tasks_launched == launched + 1

    def test_issues_ahead_only_of_a_stall_in_a_one_color_fusing_scope(self):
        rt, _out, _logged, _launched = self._deferred()
        clock = rt.issue_time
        ready, late = Future(1.0, clock), Future(1.0, clock + 1.0)
        assert not rt.issues_ahead_of(ready)
        assert rt.issues_ahead_of(late)
        assert rt.issues_ahead_of(ready, Future.pending(rt))
        for other in (
            self._deferred(gpus=2)[0],
            self._deferred(fusion=False)[0],
        ):
            assert not other.issues_ahead_of(Future(1.0, other.issue_time + 1.0))
        wide = self._deferred(gpus=2)[0]
        with wide.narrow(1):
            assert wide.issues_ahead_of(Future(1.0, wide.issue_time + 1.0))


class TestFill:
    def test_fill_value(self, gpu2):
        r = gpu2.create_region((10,), np.float64)
        gpu2.fill(r, 7.5)
        gpu2.barrier()  # fills are fusible: flush the deferred window
        np.testing.assert_array_equal(r.data, np.full(10, 7.5))
        assert gpu2.profiler.fills == 1


class TestRegionLifecycle:
    def test_free_region_recycles_instances(self, gpu2):
        inp = gpu2.create_region((100,), np.float64, data=np.ones(100))
        out = gpu2.create_region((100,), np.float64)
        launch_double(gpu2, out, inp)
        mem = gpu2.scope.processors[0].memory
        state = gpu2.instances.state(mem)
        before = state.used_bytes
        assert before > 0
        out.destroy()
        inp.destroy()
        # Bytes stay charged but the allocations are pooled for reuse.
        assert state.instances.get(out.uid, []) == []
        assert len(state.pool) == 2
        # A new same-size region claims a pooled allocation: no growth.
        again = gpu2.create_region((100,), np.float64)
        launch_double(gpu2, again, again, colors=2)
        assert state.used_bytes <= before

    def test_a_dropped_runtime_is_freed_without_a_cyclic_collection(self):
        """Nothing a runtime owns refers back to it (its recovery
        component holds a proxy), so dropping the last reference frees
        it and everything it holds at once."""
        import gc
        import weakref

        from repro.legion.chaos import ChaosConfig, LossSchedule

        gc.disable()
        try:
            chaos = ChaosConfig(losses=(LossSchedule("gpu", 1, 1e9),))
            for config in (RuntimeConfig.legate(), RuntimeConfig.legate(chaos=chaos)):
                rt = Runtime(laptop().scope(ProcessorKind.GPU, 2), config)
                inp = rt.create_region((100,), np.float64, data=np.ones(100))
                out = rt.create_region((100,), np.float64)
                launch_double(rt, out, inp)
                rt.recovery.checkpoint()
                ref = weakref.ref(rt)
                del rt, inp, out
                assert ref() is None
        finally:
            gc.enable()
