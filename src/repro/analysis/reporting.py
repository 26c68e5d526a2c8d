"""Plain-text rendering of benchmark tables and series.

The benchmark harness regenerates the paper's tables/figures as text — the
same rows/series the paper plots, printable in CI logs and diffable across
runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = ["render_table", "render_series", "render_search_summary"]


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Fixed-width table with a title rule."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    header_line = sep.join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(header_line)
    lines = [title, rule, header_line, rule]
    for row in rows:
        lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(rule)
    return "\n".join(lines)


def render_series(
    title: str,
    points: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    width: int = 48,
) -> str:
    """A small ASCII scatter/line rendering of an (x, y) series."""
    if not points:
        raise ValueError("no points to render")
    ys = [p[1] for p in points]
    y_max = max(ys) or 1.0
    lines = [f"{title}   ({x_label} vs {y_label})"]
    for x, y in points:
        bar = "#" * max(1, int(width * y / y_max))
        lines.append(f"{_fmt(x):>12} | {bar} {_fmt(y)}")
    return "\n".join(lines)


def render_search_summary(results: Sequence[object], title: str = "") -> str:
    """Table over :class:`~repro.search.engine.SearchResult` objects.

    Duck-typed (no import of the search layer): anything exposing the
    result fields renders.  Shows the design-reuse accounting — Designer
    executions and design-memo hit rate — next to the search outcome, the
    collection-level view the CLI's multi-matrix mode prints.
    """
    rows = []
    for res in results:
        rows.append([
            res.matrix_name or "<unnamed>",
            res.best_gflops,
            res.total_evaluations,
            res.structures_tried,
            res.designer_runs,
            f"{res.design_cache_hit_rate * 100.0:.0f}%",
            res.wall_time_s,
        ])
    return render_table(
        title or "Search summary (shared engine)",
        ["matrix", "GFLOPS", "evals", "structs", "designs", "cache hit", "wall s"],
        rows,
    )


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)
