"""Profiler unit tests: counters, deltas, summaries."""

from dataclasses import fields

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.profiler import Profiler
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


class TestCounters:
    def test_record_and_totals(self):
        p = Profiler()
        p.record_task("spmv", 4)
        p.record_copy("nvlink[0,1]", 100)
        p.record_copy("nic[0]", 50)
        p.record_copy("nvlink[2,3]", 100)
        p.record_allreduce()
        assert p.tasks_launched == 1
        assert p.shards_executed == 4
        assert p.total_copy_bytes() == 250
        assert p.total_copy_bytes("nvlink") == 200
        assert p.total_copies("nic") == 1
        assert p.allreduces == 1

    def test_channel_kind_grouping(self):
        p = Profiler()
        p.record_copy("nvlink[1,2]", 10)
        p.record_copy("nvlink[3,4]", 20)
        assert p.copy_bytes["nvlink"] == 30

    def test_snapshot_delta(self):
        p = Profiler()
        p.record_task("a", 1)
        snap = p.snapshot()
        p.record_task("a", 1)
        p.record_copy("nic[0]", 64)
        delta = p.since(snap)
        assert delta.tasks_launched == 1
        assert delta.copy_bytes["nic"] == 64
        assert delta.task_counts["a"] == 1

    def test_summary_renders(self):
        machine = laptop()
        rt = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(rt):
            A = sp.eye(32, format="csr")
            x = rnp.ones(32)
            for _ in range(3):
                x = A @ x
                x /= rnp.linalg.norm(x)
        text = rt.profiler.format_summary()
        assert "tasks launched" in text
        assert "hottest tasks" in text
        assert "allreduces" in text

    def test_summary_prints_fills(self):
        p = Profiler()
        p.record_fill()
        p.record_fill()
        assert "fills:            2" in p.format_summary()
        # And stays quiet when nothing was filled.
        assert "fills" not in Profiler().format_summary()


class TestSnapshotDelta:
    def test_drift_guard_every_field_survives_delta(self):
        """Bump every counter field by a distinct amount and assert the
        snapshot/since pair reproduces exactly that delta — a counter
        added without snapshot support can never slip through again."""
        base = Profiler()
        bumped = Profiler()
        for i, f in enumerate(fields(Profiler)):
            bump = i + 1
            cur = getattr(bumped, f.name)
            if isinstance(cur, int):
                setattr(base, f.name, 10 * bump)
                setattr(bumped, f.name, 10 * bump + bump)
            elif isinstance(cur, float):
                setattr(base, f.name, 0.5 * bump)
                setattr(bumped, f.name, 0.5 * bump + bump)
            elif isinstance(cur, dict):
                getattr(base, f.name)[f.name] = 10 * bump
                getattr(bumped, f.name)[f.name] = 10 * bump + bump
                getattr(bumped, f.name)["fresh-key"] = bump
            else:
                raise AssertionError(
                    f"field {f.name!r} has a type the drift guard does "
                    f"not cover: {type(cur).__name__}"
                )
        snap = bumped.snapshot()
        # The snapshot is faithful for every field...
        for f in fields(Profiler):
            assert getattr(snap, f.name) == getattr(bumped, f.name), f.name
        # ...and since() yields exactly the per-field bumps.
        delta = bumped.since(base)
        for i, f in enumerate(fields(Profiler)):
            bump = i + 1
            got = getattr(delta, f.name)
            if isinstance(got, dict):
                assert got[f.name] == bump, f.name
                assert got["fresh-key"] == bump, f.name
            else:
                assert got == bump, f.name
