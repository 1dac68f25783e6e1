"""Result containers + table formatting for the figure experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Series:
    """One line of a weak-scaling plot: (processor count, throughput)."""

    name: str
    points: List[Tuple[int, Optional[float]]] = field(default_factory=list)
    # Per-point annotations (e.g. the OutOfMemoryError account for an
    # OOM cell), keyed by processor count; rendered as table footnotes.
    details: Dict[int, str] = field(default_factory=dict)

    def add(
        self, procs: int, throughput: Optional[float], detail: Optional[str] = None
    ) -> None:
        """Append a (processors, throughput|None) point.

        ``detail`` attaches a per-point account — for OOM points, the
        exception's :meth:`~repro.legion.exceptions.OutOfMemoryError.describe`
        string naming the memory, region, rect and mapping task.
        """
        self.points.append((procs, throughput))
        if detail:
            self.details[procs] = detail

    def at(self, procs: int) -> Optional[float]:
        """Throughput at a processor count (None if absent/OOM)."""
        for p, v in self.points:
            if p == procs:
                return v
        return None

    def first(self) -> Optional[float]:
        """First non-OOM value."""
        for _, v in self.points:
            if v is not None:
                return v
        return None

    def last(self) -> Optional[float]:
        """Last non-OOM value."""
        for _, v in reversed(self.points):
            if v is not None:
                return v
        return None


@dataclass
class FigureResult:
    """All series of one figure, with the paper's labels."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    columns: List[str]
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def series_for(self, name: str) -> Series:
        """Get-or-create a named series."""
        if name not in self.series:
            self.series[name] = Series(name)
        return self.series[name]

    def add_note(self, note: str) -> None:
        """Attach a footnote to the table."""
        self.notes.append(note)

    def format_table(self) -> str:
        """The figure as text: one row per system, one column per scale."""
        width = max(12, max((len(n) for n in self.series), default=12) + 1)
        colw = max(9, max(len(c) for c in self.columns) + 1)
        lines = [f"{self.figure}: {self.title}", f"({self.ylabel} vs {self.xlabel})"]
        header = " " * width + "".join(c.rjust(colw) for c in self.columns)
        lines.append(header)
        for name, series in self.series.items():
            cells = []
            values = {p: v for p, v in series.points}
            for idx, _ in enumerate(self.columns):
                if idx < len(series.points):
                    v = series.points[idx][1]
                    cells.append(("OOM" if v is None else f"{v:.3g}").rjust(colw))
                else:
                    cells.append("-".rjust(colw))
            lines.append(name.ljust(width) + "".join(cells))
        for name, series in self.series.items():
            for procs, detail in sorted(series.details.items()):
                lines.append(f"  {name} @ {procs}: {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def ratio(self, a: str, b: str, procs: int) -> Optional[float]:
        """throughput(a) / throughput(b) at a processor count."""
        va = self.series[a].at(procs) if a in self.series else None
        vb = self.series[b].at(procs) if b in self.series else None
        if va is None or vb is None or vb == 0:
            return None
        return va / vb


def figure_main(run_fn, description: str, argv=None) -> None:
    """Shared CLI for the figure experiments: table + optional profiling.

    ``--columns N`` runs only the first N weak-scaling columns (quick
    smokes); ``--profile PATH`` records a timeline of every modeled
    activity and writes the Chrome trace to PATH, the native span log
    beside it (see :func:`repro.harness.config.run_profiled`), and an
    ASCII utilization/critical-path summary after the table.
    ``REPRO_PROFILE=1`` in the environment also enables recording —
    ``--profile`` is what additionally exports the artifacts.
    """
    import argparse

    from repro.harness.config import (
        WEAK_SCALING_COLUMNS,
        run_profiled,
        spans_artifact_path,
    )

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--columns", type=int, default=None, metavar="N",
        help="run only the first N weak-scaling columns",
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="record a timeline; write the Chrome trace to PATH and the "
        "native span log beside it",
    )
    args = parser.parse_args(argv)
    columns = WEAK_SCALING_COLUMNS[: args.columns] if args.columns else None
    if args.profile:
        fig, timeline = run_profiled(run_fn, args.profile, columns=columns)
        print(fig.format_table())
        print()
        print(timeline.format_ascii())
        print(f"chrome trace: {args.profile}")
        print(f"span log:     {spans_artifact_path(args.profile)}")
    else:
        print(run_fn(columns=columns).format_table())
