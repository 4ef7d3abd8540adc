"""Plain-text rendering of experiment tables (``sais-repro run`` prints them)."""

from __future__ import annotations

import typing as t

__all__ = ["speedup", "render_table"]


def speedup(baseline: float, improved: float) -> float:
    """Fractional improvement of ``improved`` over ``baseline``.

    Matches the paper's "speed-up (%)" series: positive when the improved
    quantity is larger (bandwidth) — callers flip the arguments for
    less-is-better metrics.
    """
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return improved / baseline - 1.0


def render_table(
    headers: t.Sequence[str],
    rows: t.Sequence[t.Sequence[t.Any]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    divider = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(divider)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
