"""Run the pinned bench suite, record a trajectory file, gate regressions.

Output format (``BENCH_<rev>.json``, schema 1)::

    {
      "schema": 1,
      "rev": "abc1234",
      "created": "2026-08-05T12:00:00+00:00",
      "scale": "quick",
      "python": "3.11.7",
      "entries": [
        {"name": ..., "wall_time_s": ..., "events_processed": ...,
         "events_per_s": ..., "sim_elapsed_s": ..., "bandwidth_mb_s": ...},
        ...
      ],
      "totals": {"wall_time_s": ..., "events_processed": ...}
    }

``events_processed`` is exact and deterministic (it counts calendar pops in
:class:`~repro.des.Environment`); wall time is machine noise, so the
regression gate applies its threshold to *total* wall time and treats event
counts as an exact secondary report.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import platform
import subprocess
import time
import typing as t
from pathlib import Path

from .suite import BenchEntry, bench_entries

__all__ = [
    "BenchRecord",
    "run_entry",
    "profile_entry_collapsed",
    "run_suite",
    "write_payload",
    "find_baseline",
    "compare_payloads",
    "main",
]


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """Measured cost of one suite entry."""

    name: str
    title: str
    wall_time_s: float
    events_processed: int
    events_per_s: float
    sim_elapsed_s: float
    bandwidth_mb_s: float

    def to_dict(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self)


def run_entry(
    entry: BenchEntry, profile: bool = False, profile_top: int = 15
) -> tuple[BenchRecord, str | None]:
    """Run one entry; returns its record plus an optional profile dump.

    The record always comes from an unprofiled run.  With ``profile`` set,
    a second, fresh simulation of the entry runs under cProfile for the
    text dump alone, so ``wall_time_s`` (and the gate that reads it) never
    includes profiler overhead.
    """
    from ..cluster.simulation import Simulation
    from ..units import MiB

    sim = Simulation(entry.config)
    started = time.perf_counter()
    metrics = sim.run()
    wall = time.perf_counter() - started
    # Read through the MetricsRegistry rather than poking env directly —
    # same number, but it keeps the registry on a tested hot path.
    events = int(sim.cluster.metrics.read("des.events_processed"))
    record = BenchRecord(
        name=entry.name,
        title=entry.title,
        wall_time_s=wall,
        events_processed=events,
        events_per_s=events / wall if wall > 0 else 0.0,
        sim_elapsed_s=metrics.elapsed,
        bandwidth_mb_s=metrics.bandwidth / MiB,
    )
    profile_text = _profile_text(entry, profile_top) if profile else None
    return record, profile_text


def _profile_text(entry: BenchEntry, profile_top: int) -> str:
    """cProfile one fresh run of ``entry``; the top cumulative-time rows."""
    import cProfile
    import io
    import pstats

    from ..cluster.simulation import Simulation

    sim = Simulation(entry.config)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(profile_top)
    return buffer.getvalue()


def profile_entry_collapsed(
    entry: BenchEntry, interval: float = 0.002
) -> list[str]:
    """Re-run one entry under the stack sampler; collapsed-stack lines.

    The output is Brendan Gregg's folded format (``frame;frame count``),
    ready for ``flamegraph.pl`` or speedscope.  Wall-clock sampling is
    inherently nondeterministic, so this runs *separately* from the timed
    measurement — the recorded wall time never includes sampler overhead.
    """
    from ..cluster.simulation import Simulation
    from ..obs.flamegraph import profile_collapsed

    sim = Simulation(entry.config)
    _metrics, lines = profile_collapsed(
        sim.run, interval=interval, strip_prefix="repro."
    )
    return lines


def current_rev() -> str:
    """Short git revision of the working tree, ``-dirty`` suffixed."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
        return f"{rev}-dirty" if dirty else rev
    except Exception:  # noqa: BLE001 - no git, shallow CI checkout, ...
        return "unknown"


def run_suite(
    scale: str = "quick",
    *,
    rev: str | None = None,
    profile: bool = False,
    profile_top: int = 15,
    flame_dir: Path | None = None,
    echo: t.Callable[[str], None] | None = None,
) -> dict[str, t.Any]:
    """Run every entry of ``scale``'s suite; returns the payload dict.

    With ``profile`` set and a ``flame_dir``, each entry additionally gets
    a collapsed-stack ``FLAME_<entry>.folded`` file written there (from a
    separate sampled run, so the timed numbers stay clean).
    """
    say = echo or (lambda _msg: None)
    records: list[BenchRecord] = []
    for entry in bench_entries(scale):
        record, profile_text = run_entry(
            entry, profile=profile, profile_top=profile_top
        )
        records.append(record)
        say(
            f"{record.name}: {record.wall_time_s:.3f}s wall, "
            f"{record.events_processed} events "
            f"({record.events_per_s:,.0f}/s), "
            f"{record.bandwidth_mb_s:.1f} MB/s simulated"
        )
        if profile_text is not None:
            say(f"--- profile: {record.name} ---\n{profile_text}")
        if profile and flame_dir is not None:
            lines = profile_entry_collapsed(entry)
            folded = flame_dir / f"FLAME_{record.name}.folded"
            folded.write_text("\n".join(lines) + ("\n" if lines else ""))
            say(
                f"wrote {folded} ({len(lines)} stacks; feed to "
                "flamegraph.pl or speedscope)"
            )
    return {
        "schema": 1,
        "rev": rev or current_rev(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "scale": scale,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "entries": [record.to_dict() for record in records],
        "totals": {
            "wall_time_s": sum(r.wall_time_s for r in records),
            "events_processed": sum(r.events_processed for r in records),
        },
    }


def write_payload(payload: dict[str, t.Any], out_dir: Path) -> Path:
    """Write ``BENCH_<rev>.json`` into ``out_dir``; returns the path."""
    path = out_dir / f"BENCH_{payload['rev']}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def find_baseline(out_dir: Path, exclude: Path | None = None) -> Path | None:
    """The most recent committed ``BENCH_*.json`` (by recorded ``created``).

    ``exclude`` drops the file the current run just wrote, so a rerun in a
    dirty tree never compares against itself.
    """
    candidates: list[tuple[str, Path]] = []
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if exclude is not None and path.resolve() == exclude.resolve():
            continue
        try:
            payload = json.loads(path.read_text())
            candidates.append((str(payload.get("created", "")), path))
        except (OSError, ValueError):
            continue
    if not candidates:
        return None
    return max(candidates)[1]


@dataclasses.dataclass(frozen=True)
class Comparison:
    """Regression verdict of one payload against a baseline."""

    baseline_rev: str
    #: (entry name, baseline wall, new wall, fractional change) per entry
    #: present in both payloads.
    entries: tuple[tuple[str, float, float, float], ...]
    total_wall_change: float
    #: baseline events / new events over shared entries (>1 = fewer now).
    events_ratio: float
    threshold: float

    @property
    def regressed(self) -> bool:
        return self.total_wall_change > self.threshold


def compare_payloads(
    payload: dict[str, t.Any],
    baseline: dict[str, t.Any],
    threshold: float = 0.30,
) -> Comparison:
    """Compare total wall time over the entries shared with the baseline."""
    base_by_name = {e["name"]: e for e in baseline.get("entries", ())}
    rows: list[tuple[str, float, float, float]] = []
    base_wall = new_wall = 0.0
    base_events = new_events = 0
    for entry in payload["entries"]:
        base = base_by_name.get(entry["name"])
        if base is None:
            continue
        b, n = base["wall_time_s"], entry["wall_time_s"]
        rows.append((entry["name"], b, n, (n - b) / b if b > 0 else 0.0))
        base_wall += b
        new_wall += n
        base_events += base["events_processed"]
        new_events += entry["events_processed"]
    total_change = (
        (new_wall - base_wall) / base_wall if base_wall > 0 else 0.0
    )
    return Comparison(
        baseline_rev=str(baseline.get("rev", "?")),
        entries=tuple(rows),
        total_wall_change=total_change,
        events_ratio=(base_events / new_events) if new_events else 0.0,
        threshold=threshold,
    )


def main(
    scale: str = "quick",
    *,
    out_dir: str | Path = ".",
    rev: str | None = None,
    baseline: str | Path | None = None,
    threshold: float = 0.30,
    profile: bool = False,
    profile_top: int = 15,
    echo: t.Callable[[str], None] = print,
) -> int:
    """Full bench flow: run, write, compare.  Returns a process exit code
    (0 = ok / no baseline to compare, 1 = wall-time regression beyond the
    threshold)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = run_suite(
        scale,
        rev=rev,
        profile=profile,
        profile_top=profile_top,
        flame_dir=out if profile else None,
        echo=lambda msg: echo(f"bench: {msg}"),
    )
    path = write_payload(payload, out)
    echo(
        f"bench: wrote {path} "
        f"(total {payload['totals']['wall_time_s']:.3f}s wall, "
        f"{payload['totals']['events_processed']} events)"
    )

    if baseline is not None:
        baseline_path: Path | None = Path(baseline)
    else:
        baseline_path = find_baseline(out, exclude=path)
    if baseline_path is None:
        echo("bench: no baseline BENCH_*.json found; nothing to compare")
        return 0
    try:
        baseline_payload = json.loads(Path(baseline_path).read_text())
    except (OSError, ValueError) as exc:
        echo(f"bench: cannot read baseline {baseline_path}: {exc}")
        return 1
    result = compare_payloads(payload, baseline_payload, threshold)
    for name, base_wall, new_wall, change in result.entries:
        echo(
            f"bench: {name}: {base_wall:.3f}s -> {new_wall:.3f}s "
            f"({change:+.1%})"
        )
    echo(
        f"bench: vs {result.baseline_rev}: total wall "
        f"{result.total_wall_change:+.1%} "
        f"(threshold {result.threshold:.0%}), "
        f"events ratio x{result.events_ratio:.2f} "
        f"(baseline/current; >1 = fewer events now)"
    )
    if result.regressed:
        echo("bench: REGRESSION beyond threshold")
        return 1
    return 0
