"""Unit tests for the harness plumbing (no full experiment runs)."""

import pytest

from repro.harness.config import (
    GPU_COLUMNS,
    SOCKET_COLUMNS,
    WEAK_SCALING_COLUMNS,
    column_label,
    nodes_needed,
    reduced_size,
)
from repro.harness.figures import FigureResult, Series
from repro.harness.plotting import ascii_plot
from repro.harness.report import shape_checks


class TestConfig:
    def test_paper_columns(self):
        assert WEAK_SCALING_COLUMNS[0] == (1, 1)
        assert WEAK_SCALING_COLUMNS[-1] == (64, 192)
        assert GPU_COLUMNS == [1, 3, 6, 12, 24, 48, 96, 192]
        assert SOCKET_COLUMNS == [1, 1, 2, 4, 8, 16, 32, 64]

    def test_socket_gpu_pairing(self):
        """Columns pair each socket with its three NVLink GPUs."""
        for sockets, gpus in WEAK_SCALING_COLUMNS[1:]:
            assert gpus == 3 * sockets

    def test_column_label(self):
        assert column_label((2, 6)) == "2/6"

    def test_nodes_needed(self):
        assert nodes_needed() == 32  # 64 sockets / 2 per node

    def test_reduced_size_caps_and_floors(self):
        assert reduced_size(10**9, procs=1) == 400_000
        assert reduced_size(10**9, procs=1000, per_proc_floor=512) == 512_000
        assert reduced_size(1000, procs=1) == 1000  # already small


class TestSeries:
    def test_add_and_lookup(self):
        s = Series("x")
        s.add(1, 10.0)
        s.add(3, None)
        s.add(6, 30.0)
        assert s.at(1) == 10.0
        assert s.at(3) is None
        assert s.at(99) is None
        assert s.first() == 10.0
        assert s.last() == 30.0


def make_result():
    fig = FigureResult(
        figure="Figure 8",
        title="t",
        xlabel="x",
        ylabel="y",
        columns=["1/1", "2/6"],
    )
    for name, vals in {
        "Legate-GPU": [300.0, 298.0],
        "CuPy (1 GPU)": [340.0, 340.0],
        "PETSc-GPU": [370.0, 369.0],
        "Legate-CPU": [17.0, 17.0],
        "SciPy": [2.0, 2.0],
        "PETSc-CPU": [20.0, 20.0],
    }.items():
        series = fig.series_for(name)
        for procs, v in zip([1, 6], vals):
            series.add(procs, v)
    return fig


class TestFigureResult:
    def test_table_renders_oom(self):
        fig = make_result()
        fig.series_for("Legate-GPU").points[-1] = (6, None)
        table = fig.format_table()
        assert "OOM" in table
        assert "Figure 8" in table

    def test_ratio(self):
        fig = make_result()
        assert fig.ratio("Legate-GPU", "PETSc-GPU", 1) == pytest.approx(300 / 370)
        assert fig.ratio("Legate-GPU", "missing", 1) is None

    def test_notes_in_table(self):
        fig = make_result()
        fig.add_note("hello note")
        assert "hello note" in fig.format_table()


class TestShapeChecks:
    def test_all_pass_on_paper_shaped_data(self):
        checks = shape_checks(make_result())
        assert checks
        assert all(c.startswith("PASS") for c in checks)

    def test_miss_detected(self):
        fig = make_result()
        # Make Legate-GPU faster than CuPy: violates the Fig. 8 shape.
        fig.series["Legate-GPU"].points[0] = (1, 400.0)
        checks = shape_checks(fig)
        assert any(c.startswith("MISS") for c in checks)


class TestPlotting:
    def test_ascii_plot_renders(self):
        art = ascii_plot(make_result(), width=30, height=8)
        assert "Figure 8" in art
        assert "Legate-GPU" in art
        # All six series glyphs appear in the legend.
        assert art.count("procs") >= 2

    def test_empty_series(self):
        fig = FigureResult("F", "t", "x", "y", ["a"])
        fig.series_for("empty").add(1, None)
        assert ascii_plot(fig) == "(no data)"
