"""Timeline profiler: span conservation, critical path, export, gating."""

import json

import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.legion.timeline import (
    BUSY_CATEGORIES,
    Timeline,
    active_timelines,
    drain_timelines,
    profile_default,
    set_profile_default,
)
from repro.machine import ProcessorKind, summit

GRID = 16
ITERS = 4


@pytest.fixture(autouse=True)
def _clean_registry():
    drain_timelines()
    yield
    drain_timelines()


def _cg(profile, procs=2, trailing_checkpoint=False, **cfg):
    """A small profiled CG solve; returns (rt, machine, elapsed)."""
    machine = summit(nodes=1)
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, procs, per_node=min(procs, 2)),
        RuntimeConfig.legate(profile=profile, **cfg),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(GRID))
        b = rnp.ones(GRID * GRID)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=ITERS)
        if trailing_checkpoint:
            rt.checkpoint()
        elapsed = rt.elapsed()
    return rt, machine, elapsed


class TestGating:
    def test_off_by_default(self):
        rt, _, _ = _cg(profile=False)
        assert rt.timeline is None
        assert active_timelines() == []

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile_default() is False
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile_default() is True
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert profile_default() is False

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        previous = set_profile_default(True)
        try:
            assert profile_default() is True
            rt, _, _ = _cg(profile=RuntimeConfig.legate().profile)
            assert rt.timeline is not None
        finally:
            set_profile_default(previous)
        assert profile_default() is False

    def test_profiling_changes_nothing_modeled(self):
        """Same workload with profiling on and off: identical counters
        and bit-identical modeled times (acceptance criterion)."""
        rt_off, _, t_off = _cg(profile=False)
        rt_on, _, t_on = _cg(profile=True)
        assert t_on == t_off
        assert rt_on.profiler.tasks_launched == rt_off.profiler.tasks_launched
        assert rt_on.profiler.copy_count == rt_off.profiler.copy_count
        assert rt_on.profiler.copy_bytes == rt_off.profiler.copy_bytes
        assert (
            rt_on.profiler.launch_overhead_seconds
            == rt_off.profiler.launch_overhead_seconds
        )

    def test_registry_tracks_profiling_runtimes(self):
        rt, _, _ = _cg(profile=True)
        assert rt.timeline in active_timelines()
        drained = drain_timelines()
        assert rt.timeline in drained
        assert active_timelines() == []


class TestConservation:
    def test_busy_spans_never_overlap(self):
        """Per resource, the sum of busy-span durations equals their
        union: no resource is ever double-booked."""
        rt, _, _ = _cg(profile=True)
        usage = rt.timeline.utilization()
        assert usage  # sanity: something was recorded
        for resource, u in usage.items():
            assert u.busy == pytest.approx(u.busy_sum, abs=0.0), resource

    def test_channel_spans_match_occupancy(self):
        """The latest span finish per channel equals Channel.busy_until."""
        rt, machine, _ = _cg(profile=True)
        by_resource = {}
        for span in rt.timeline.spans:
            if span.category in BUSY_CATEGORIES:
                by_resource.setdefault(span.resource, []).append(span.finish)
        for chan in machine.channels():
            if chan.busy_until == 0.0:
                continue
            assert max(by_resource[chan.name]) == chan.busy_until

    def test_proc_spans_match_busy_clock(self):
        rt, _, _ = _cg(profile=True)
        finishes = {}
        for span in rt.timeline.spans:
            if span.category in ("task", "fold"):
                finishes.setdefault(span.resource, []).append(span.finish)
        for proc in rt.scope.processors:
            label = f"{proc.kind.value}[{proc.uid}]"
            assert max(finishes[label]) == rt._proc_busy[proc.uid]

    def test_every_span_within_horizon(self):
        rt, _, elapsed = _cg(profile=True)
        for span in rt.timeline.spans:
            assert 0.0 <= span.start <= span.finish <= elapsed


class TestCriticalPath:
    def test_path_equals_elapsed_bitwise(self):
        rt, _, elapsed = _cg(profile=True)
        path = rt.timeline.critical_path(elapsed)
        assert path.start == 0.0
        assert path.finish == elapsed
        assert path.length == elapsed  # bit-for-bit, no re-summation
        for a, b in zip(path.steps, path.steps[1:]):
            assert a.finish == b.start  # contiguous by construction

    def test_saved_horizon_used_offline(self, tmp_path):
        rt, _, elapsed = _cg(profile=True)
        log = tmp_path / "run.spans.json"
        rt.timeline.save(str(log))
        loaded = Timeline.load(str(log))
        assert loaded.horizon == elapsed
        assert loaded.critical_path().length == elapsed

    def test_synthetic_wait_attribution(self):
        tl = Timeline("t")
        tl.record("task", "gpu[0]", "a", 0.0, 1.0)
        tl.record("task", "gpu[0]", "b", 1.5, 2.0)
        tl.record("evict", "fb[0]", "zero-width", 2.0, 2.0)  # never on path
        path = tl.critical_path(2.0)
        kinds = [s.kind for s in path.steps]
        assert kinds == ["task", "wait", "task"]
        assert path.time_by_kind() == {"task": 1.5, "wait": 0.5}
        assert path.length == 2.0

    def test_latest_start_breaks_finish_ties(self):
        tl = Timeline("t")
        tl.record("copy", "nic[0]", "long", 0.0, 2.0)
        tl.record("task", "gpu[0]", "short", 1.5, 2.0)
        path = tl.critical_path(2.0)
        assert path.steps[-1].name == "short"

    def test_empty_timeline(self):
        tl = Timeline("t")
        assert tl.critical_path().steps == []
        assert tl.critical_path().length == 0.0


class TestExport:
    def test_chrome_trace_well_formed(self):
        rt, _, _ = _cg(profile=True)
        trace = json.loads(json.dumps(rt.timeline.chrome_trace()))
        events = trace["traceEvents"]
        assert events
        assert all(e["ph"] in ("X", "M") for e in events)
        durable = [e for e in events if e["ph"] == "X"]
        assert len(durable) == len(rt.timeline.spans)
        assert all("ts" in e and "dur" in e and e["dur"] >= 0 for e in durable)
        names = {
            e["args"]["name"] for e in events if e.get("name") == "thread_name"
        }
        assert names == set(rt.timeline.resources())

    def test_save_load_round_trip(self, tmp_path):
        rt, _, _ = _cg(profile=True)
        log = tmp_path / "run.spans.json"
        rt.timeline.save(str(log))
        loaded = Timeline.load(str(log))
        assert loaded.name == rt.timeline.name
        assert loaded.meta == rt.timeline.meta
        assert loaded.spans == rt.timeline.spans
        assert loaded.horizon == rt.timeline.horizon

    def test_load_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "spans": []}))
        with pytest.raises(ValueError, match="version"):
            Timeline.load(str(bad))

    def test_ascii_summary_renders(self):
        rt, _, _ = _cg(profile=True)
        text = rt.timeline.format_ascii()
        assert "critical path" in text
        assert "resource" in text
        for proc in rt.scope.processors:
            assert f"{proc.kind.value}[{proc.uid}]" in text


class TestClockFix:
    def test_trailing_copy_extends_elapsed(self):
        """A run ending in a copy (async checkpoint snapshot) reports a
        strictly larger elapsed() than the pre-fix max(issue, procs)."""
        machine = summit(nodes=1)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 2, per_node=2),
            RuntimeConfig.legate(profile=True),
        )
        with runtime_scope(rt):
            A = sp.csr_matrix(poisson2d_scipy(GRID))
            b = rnp.ones(GRID * GRID)
            sp.linalg.cg(A, b, rtol=0.0, maxiter=ITERS)
            # CG's last p-update (fused apart from the final norm, which
            # hoists ahead of it) outlasts the wait on that norm: drain
            # the processors so that the snapshot is what ends the run.
            rt.barrier()
            rt.checkpoint()  # final operation: snapshot drains on channels
            legacy = max(rt.issue_time, max(rt._proc_busy.values()))
            elapsed = rt.elapsed()
        assert elapsed > legacy
        assert elapsed == machine.channel_horizon()
        # The channel drain still satisfies every timeline invariant.
        path = rt.timeline.critical_path(elapsed)
        assert path.length == elapsed
        assert path.steps[-1].kind == "checkpoint"

    def test_barrier_advances_issue_clock_past_channels(self):
        rt, machine, _ = _cg(profile=False, trailing_checkpoint=True)
        with runtime_scope(rt):
            t = rt.barrier()
        assert t == rt.issue_time
        assert t >= machine.channel_horizon()
