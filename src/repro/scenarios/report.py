"""Aggregate sweep reporting: win-rate tables over topology features.

A sweep experiment's :class:`~repro.experiments.base.ExperimentResult`
is a per-scenario table (one row per generated scenario, numeric
feature and delta columns).  :func:`build_report` folds any number of
those — the pinned family, a custom ``--spec`` run, or both — into one
:class:`SweepReport`: overall win rate, per-experiment headlines, and
win-rate buckets over the topology features the generator records
(fan-in depth, switch tiers, oversubscription ratio, link
heterogeneity, operation, MSS regime).

Determinism contract: the report is a pure fold of the result rows, and
serialization sorts keys, so two invocations over the same results — or
one live run and one all-cache-hits replay — emit byte-identical JSON
(the CI sweep job ``cmp``'s exactly this).
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from ..errors import ConfigError
from ..metrics.report import render_table
from ..units import sum_left

if t.TYPE_CHECKING:  # pragma: no cover
    from ..experiments.base import ExperimentResult

__all__ = ["BucketStat", "SweepReport", "build_report", "SWEEP_HEADERS"]

#: The sweep family's row schema (pinned by the golden snapshots).
SWEEP_HEADERS = (
    "scenario",
    "class",
    "clients",
    "servers",
    "fan_in",
    "tiers",
    "oversub",
    "link_ratio",
    "mss",
    "transfer",
    "op",
    "baseline_MiB_s",
    "treatment_MiB_s",
    "delta_pct",
)


@dataclasses.dataclass(frozen=True)
class BucketStat:
    """Win-rate/delta summary of the scenarios landing in one bucket."""

    label: str
    n: int
    wins: int
    win_rate: float
    mean_delta_pct: float

    def to_dict(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """The aggregate over every scenario of one or more sweep results."""

    n_scenarios: int
    wins: int
    win_rate: float
    mean_delta_pct: float
    min_delta_pct: float
    max_delta_pct: float
    #: ``(exp_id, n, win_rate, mean_delta_pct)`` per folded experiment.
    experiments: tuple[tuple[str, int, float, float], ...]
    #: Feature name -> bucket stats, in a stable feature order.
    buckets: tuple[tuple[str, tuple[BucketStat, ...]], ...]
    #: Every scenario row, tagged with its experiment id.
    scenarios: tuple[dict[str, t.Any], ...]

    def to_dict(self) -> dict[str, t.Any]:
        return {
            "n_scenarios": self.n_scenarios,
            "wins": self.wins,
            "win_rate": self.win_rate,
            "mean_delta_pct": self.mean_delta_pct,
            "min_delta_pct": self.min_delta_pct,
            "max_delta_pct": self.max_delta_pct,
            "experiments": [
                {
                    "exp_id": exp_id,
                    "n": n,
                    "win_rate": win_rate,
                    "mean_delta_pct": mean,
                }
                for exp_id, n, win_rate, mean in self.experiments
            ],
            "buckets": {
                feature: [stat.to_dict() for stat in stats]
                for feature, stats in self.buckets
            },
            "scenarios": list(self.scenarios),
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys) for ``--report`` artifacts."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        """The ASCII summary the ``sweep`` subcommand prints."""
        lines = [
            f"scenario sweep aggregate: {self.n_scenarios} scenario(s), "
            f"{self.wins} win(s) for the treatment "
            f"(win rate {self.win_rate:.0%}, "
            f"mean delta {self.mean_delta_pct:+.2f}%, "
            f"range [{self.min_delta_pct:+.2f}%, {self.max_delta_pct:+.2f}%])"
        ]
        if len(self.experiments) > 1:
            lines.append("")
            lines.append(
                render_table(
                    ("experiment", "n", "win_rate", "mean_delta_pct"),
                    tuple(
                        (exp_id, n, f"{win_rate:.0%}", f"{mean:+.2f}")
                        for exp_id, n, win_rate, mean in self.experiments
                    ),
                    title="per-experiment headline",
                )
            )
        for feature, stats in self.buckets:
            lines.append("")
            lines.append(
                render_table(
                    (feature, "n", "wins", "win_rate", "mean_delta_pct"),
                    tuple(
                        (
                            stat.label,
                            stat.n,
                            stat.wins,
                            f"{stat.win_rate:.0%}",
                            f"{stat.mean_delta_pct:+.2f}",
                        )
                        for stat in stats
                    ),
                    title=f"win rate by {feature.replace('_', ' ')}",
                )
            )
        return "\n".join(lines)


def _bucket_fan_in(value: float) -> str:
    if value < 2:
        return "fan-in < 2"
    if value <= 8:
        return "fan-in 2-8"
    return "fan-in > 8"


def _bucket_oversub(value: float) -> str:
    if value <= 1.001:
        return "1:1"
    if value <= 2.0:
        return "<= 2:1"
    if value <= 4.0:
        return "<= 4:1"
    return "> 4:1"


def _bucket_link_ratio(value: float) -> str:
    if value < 0.75:
        return "server-fat (< 0.75)"
    if value <= 1.5:
        return "balanced (0.75-1.5)"
    return "client-fat (> 1.5)"


#: feature name -> (row column, bucketing function).
_FEATURES: tuple[tuple[str, str, t.Callable[[t.Any], str]], ...] = (
    ("fan_in", "fan_in", lambda v: _bucket_fan_in(float(v))),
    ("tiers", "tiers", lambda v: f"{int(v)} tier(s)"),
    ("oversubscription", "oversub", lambda v: _bucket_oversub(float(v))),
    ("link_ratio", "link_ratio", lambda v: _bucket_link_ratio(float(v))),
    ("operation", "op", str),
    ("mss", "mss", lambda v: "strip-coalesced" if v == "strip" else f"mss {v}"),
)


def _mean(values: t.Sequence[float]) -> float:
    return round(sum_left(values) / len(values), 2) if values else 0.0


def build_report(results: t.Sequence["ExperimentResult"]) -> SweepReport:
    """Fold sweep-family results into one :class:`SweepReport`.

    Raises :class:`~repro.errors.ConfigError` if handed a result whose
    row schema is not the sweep family's — the report reads feature and
    delta columns by name.
    """
    if not results:
        raise ConfigError("cannot aggregate an empty result list")
    rows: list[dict[str, t.Any]] = []
    per_exp: list[tuple[str, int, float, float]] = []
    for result in results:
        if tuple(result.headers) != SWEEP_HEADERS:
            raise ConfigError(
                f"result {result.exp_id!r} is not a scenario sweep "
                f"(headers {result.headers!r})"
            )
        deltas = []
        for raw in result.rows:
            row = dict(zip(SWEEP_HEADERS, raw))
            row["exp_id"] = result.exp_id
            row["delta_pct"] = float(row["delta_pct"])
            rows.append(row)
            deltas.append(row["delta_pct"])
        wins = sum(1 for d in deltas if d > 0)
        per_exp.append(
            (
                result.exp_id,
                len(deltas),
                round(wins / len(deltas), 4) if deltas else 0.0,
                _mean(deltas),
            )
        )
    deltas = [row["delta_pct"] for row in rows]
    wins = sum(1 for d in deltas if d > 0)
    buckets: list[tuple[str, tuple[BucketStat, ...]]] = []
    for feature, column, classify in _FEATURES:
        grouped: dict[str, list[float]] = {}
        for row in rows:
            grouped.setdefault(classify(row[column]), []).append(
                row["delta_pct"]
            )
        stats = tuple(
            BucketStat(
                label=label,
                n=len(values),
                wins=sum(1 for d in values if d > 0),
                win_rate=round(
                    sum(1 for d in values if d > 0) / len(values), 4
                ),
                mean_delta_pct=_mean(values),
            )
            for label, values in sorted(grouped.items())
        )
        buckets.append((feature, stats))
    return SweepReport(
        n_scenarios=len(rows),
        wins=wins,
        win_rate=round(wins / len(rows), 4) if rows else 0.0,
        mean_delta_pct=_mean(deltas),
        min_delta_pct=min(deltas) if deltas else 0.0,
        max_delta_pct=max(deltas) if deltas else 0.0,
        experiments=tuple(per_exp),
        buckets=tuple(buckets),
        scenarios=tuple(rows),
    )
