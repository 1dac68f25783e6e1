"""Terminal plots of the weak-scaling figures (the artifact's plot.py).

Renders a :class:`~repro.harness.figures.FigureResult` as an ASCII
log-log chart, one glyph per series — good enough to eyeball the same
shapes the paper's matplotlib figures show.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.harness.figures import FigureResult

GLYPHS = "o*x+#@%&"


def _log(v: float) -> float:
    return math.log10(max(v, 1e-12))


def ascii_plot(
    result: FigureResult,
    width: int = 64,
    height: int = 20,
) -> str:
    """Log-log chart: x = processors, y = throughput."""
    points: List[Tuple[float, float, int]] = []
    names = list(result.series.keys())
    for sid, name in enumerate(names):
        for procs, value in result.series[name].points:
            if value is not None and value > 0:
                points.append((_log(procs), _log(value), sid))
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xspan = max(xhi - xlo, 1e-9)
    yspan = max(yhi - ylo, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    for x, y, sid in points:
        col = int((x - xlo) / xspan * (width - 1))
        row = height - 1 - int((y - ylo) / yspan * (height - 1))
        cell = grid[row][col]
        # Overlapping points from different series: show a collision mark.
        grid[row][col] = GLYPHS[sid % len(GLYPHS)] if cell == " " else "±"

    lines = [f"{result.figure}: {result.title}"]
    top_label = f"1e{yhi:.1f} it/s"
    bottom_label = f"1e{ylo:.1f}"
    for idx, row in enumerate(grid):
        prefix = top_label if idx == 0 else (bottom_label if idx == height - 1 else "")
        lines.append(f"{prefix:>12} |" + "".join(row))
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(
        " " * 13
        + f"{10**xlo:.0f} procs"
        + " " * max(1, width - 20)
        + f"{10**xhi:.0f} procs"
    )
    legend = "   ".join(
        f"{GLYPHS[i % len(GLYPHS)]} {name}" for i, name in enumerate(names)
    )
    lines.append("  " + legend)
    return "\n".join(lines)

