"""Terminal bar charts for the regenerated figures.

matplotlib is deliberately not a dependency; these render the paper's
bar-group figures as aligned unicode bars so `sais-repro run --plot`
gives a visual read of who wins where.
"""

from __future__ import annotations

import typing as t

from ..errors import ReproError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.base import ExperimentResult

__all__ = ["bar_chart", "grouped_bars", "plot_result"]

_FULL = "█"
_PARTIAL = " ▏▎▍▌▋▊▉"


def _bar(value: float, maximum: float, width: int) -> str:
    if maximum <= 0:
        return ""
    cells = value / maximum * width
    whole = int(cells)
    frac = cells - whole
    partial = _PARTIAL[int(frac * len(_PARTIAL))].strip()
    return _FULL * whole + partial


def bar_chart(
    labels: t.Sequence[str],
    values: t.Sequence[float],
    width: int = 48,
    title: str | None = None,
    unit: str = "",
) -> str:
    """One horizontal bar per (label, value)."""
    if len(labels) != len(values):
        raise ReproError("labels and values must have equal length")
    if not labels:
        raise ReproError("nothing to plot")
    maximum = max(values)
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = _bar(value, maximum, width)
        lines.append(f"{str(label).rjust(label_width)} | {bar} {value:g}{unit}")
    return "\n".join(lines)


def grouped_bars(
    labels: t.Sequence[str],
    series: dict[str, t.Sequence[float]],
    width: int = 48,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Grouped horizontal bars: one group per label, one bar per series."""
    if not series:
        raise ReproError("no series to plot")
    for name, values in series.items():
        if len(values) != len(labels):
            raise ReproError(f"series {name!r} length mismatch")
    maximum = max(max(values) for values in series.values())
    label_width = max(len(str(label)) for label in labels)
    name_width = max(len(name) for name in series)
    lines = [title] if title else []
    for index, label in enumerate(labels):
        for seq, (name, values) in enumerate(series.items()):
            prefix = str(label).rjust(label_width) if seq == 0 else " " * label_width
            bar = _bar(values[index], maximum, width)
            lines.append(
                f"{prefix} {name.ljust(name_width)} | {bar} "
                f"{values[index]:g}{unit}"
            )
    return "\n".join(lines)


def _numeric(cell: t.Any) -> float | None:
    text = str(cell).strip().rstrip("%").replace("+", "")
    try:
        return float(text)
    except ValueError:
        return None


def plot_result(result: "ExperimentResult", width: int = 48) -> str:
    """Best-effort chart of an experiment table.

    Heuristic: the leading non-numeric columns form the group label; the
    first two numeric columns are plotted as grouped bars (these are the
    baseline/treatment pairs in every figure experiment).
    """
    rows = result.rows
    if not rows:
        raise ReproError("experiment produced no rows")
    first = rows[0]
    numeric_cols = [
        i
        for i in range(len(first))
        if all(_numeric(row[i]) is not None for row in rows)
    ]
    # Prefer the baseline/treatment pair: the first two *adjacent* numeric
    # columns whose headers carry a measurement unit (every figure table
    # puts irqbalance and SAIs side by side).
    unit_markers = ("MB/s", "util", "cyc", "miss", "rate", "%")
    value_cols: list[int] = []
    for i in numeric_cols:
        if i + 1 in numeric_cols:
            header_a = str(result.headers[i])
            header_b = str(result.headers[i + 1])
            if any(m in header_a for m in unit_markers) and any(
                m in header_b for m in unit_markers
            ):
                value_cols = [i, i + 1]
                break
    if not value_cols:
        value_cols = numeric_cols[-2:] if len(numeric_cols) >= 2 else numeric_cols
    if not value_cols:
        raise ReproError("no numeric columns to plot")
    label_end = value_cols[0]
    labels = [" ".join(str(c) for c in row[:label_end]) for row in rows]
    series = {
        str(result.headers[i]): [float(_numeric(row[i])) for row in rows]
        for i in value_cols
    }
    if len(series) == 2:
        return grouped_bars(labels, series, width=width, title=result.title)
    name, values = next(iter(series.items()))
    return bar_chart(labels, values, width=width, title=f"{result.title} — {name}")
