"""``sais-repro bench --history`` — the performance trajectory at a glance.

Every landed optimization commits a ``BENCH_<rev>.json`` next to the last
one, so the repo root accumulates a time series of (revision, wall time,
event count) tuples.  This module renders that series as a table with
Unicode sparklines: one glance shows whether the DES kernel has been
getting faster (wall time falling) and whether a change silently altered
simulation behavior (``events_processed`` is deterministic — it should
only move when an optimization legitimately removes calendar events, as
the wire fast path did).
"""

from __future__ import annotations

import json
import typing as t
from pathlib import Path

__all__ = ["load_history", "sparkline", "render_history", "main"]

_TICKS = "▁▂▃▄▅▆▇█"


def _totals_usable(totals: t.Any) -> bool:
    """True when ``totals`` can feed :func:`render_history` arithmetic."""
    if not isinstance(totals, dict):
        return False
    for field in ("wall_time_s", "events_processed"):
        value = totals.get(field, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
    return True


def load_history(
    out_dir: Path, warn: t.Callable[[str], None] | None = None
) -> list[dict[str, t.Any]]:
    """Every readable ``BENCH_*.json`` under ``out_dir``, oldest first.

    Ordering uses the recorded ``created`` timestamp (not mtime — a fresh
    checkout resets mtimes).  A snapshot that is empty, unparseable, or
    whose ``totals`` would not survive the arithmetic in
    :func:`render_history` is skipped with one ``warn`` line — a single
    truncated file (e.g. a benchmark killed mid-write) must not take the
    whole history view down.
    """

    def _warn(path: Path, reason: str) -> None:
        if warn is not None:
            warn(f"bench: skipping {path.name}: {reason}")

    entries: list[tuple[str, dict[str, t.Any]]] = []
    for path in sorted(out_dir.glob("BENCH_*.json")):
        try:
            text = path.read_text()
        except OSError as exc:
            _warn(path, f"unreadable ({exc.__class__.__name__})")
            continue
        if not text.strip():
            _warn(path, "empty file")
            continue
        try:
            payload = json.loads(text)
        except ValueError:
            _warn(path, "malformed JSON")
            continue
        if not isinstance(payload, dict) or "totals" not in payload:
            _warn(path, "no 'totals' section")
            continue
        if not _totals_usable(payload["totals"]):
            _warn(path, "non-numeric 'totals'")
            continue
        payload["_path"] = str(path)
        entries.append((str(payload.get("created", "")), payload))
    entries.sort(key=lambda pair: pair[0])
    return [payload for _created, payload in entries]


def sparkline(values: t.Sequence[float]) -> str:
    """Render a numeric series as one Unicode bar per value."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _TICKS[0] * len(values)
    span = high - low
    return "".join(
        _TICKS[min(len(_TICKS) - 1, int((v - low) / span * len(_TICKS)))]
        for v in values
    )


def render_history(history: t.Sequence[dict[str, t.Any]]) -> str:
    """Table + sparklines over a ``load_history`` result."""
    if not history:
        return "bench: no BENCH_*.json files found"
    rows = []
    walls: list[float] = []
    events: list[float] = []
    for payload in history:
        totals = payload.get("totals", {})
        wall = float(totals.get("wall_time_s", 0.0))
        n_events = int(totals.get("events_processed", 0))
        walls.append(wall)
        events.append(float(n_events))
        rows.append(
            (
                str(payload.get("rev", "?")),
                str(payload.get("created", "?"))[:19],
                str(payload.get("scale", "?")),
                str(len(payload.get("entries", ()))),
                f"{wall:.3f}",
                f"{n_events:,}",
            )
        )
    from ..metrics.report import render_table

    lines = [
        render_table(
            ("rev", "created", "scale", "entries", "wall s", "events"),
            rows,
            title=f"bench history ({len(history)} snapshots)",
        ),
        "",
        f"wall time  {sparkline(walls)}  "
        f"({walls[0]:.3f}s -> {walls[-1]:.3f}s)",
        f"events     {sparkline(events)}  "
        f"({int(events[0]):,} -> {int(events[-1]):,})",
    ]
    first, last = walls[0], walls[-1]
    if first > 0:
        lines.append(
            f"net wall-time change: {(last - first) / first:+.1%} "
            "(negative = faster; wall time is machine noise, events are "
            "exact)"
        )
    return "\n".join(lines)


def main(
    out_dir: str | Path = ".", echo: t.Callable[[str], None] = print
) -> int:
    """Print the history table; returns a process exit code."""
    import sys

    history = load_history(
        Path(out_dir), warn=lambda line: print(line, file=sys.stderr)
    )
    echo(render_history(history))
    return 0 if history else 1
