"""The ``sweep`` experiment family: generated-scenario campaigns.

Each sweep experiment samples N scenarios from a
:class:`~repro.scenarios.ScenarioSpec` (the built-in cookbook specs, or
— for ``sweep_custom`` — whatever ``sais-repro sweep --spec`` installed
as the ambient request) and scores every scenario with one
baseline-vs-treatment A/B comparison.  The decomposition is the
standard one: the *grid* is the pure generator expansion (cheap,
pickleable :class:`~repro.scenarios.Scenario` specs), the *point* is
one deterministic A/B simulation, and *assemble* folds the comparisons
into a per-scenario table with the topology features the aggregate
report buckets on (:mod:`repro.scenarios.report`).

Because generation is byte-reproducible from ``(spec, seed)`` and every
point is named by its scenario's digest, sweeps ride the runner's
result cache and its within-invocation dedup exactly like the figure
experiments (DESIGN.md §11).
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from ..cluster.simulation import PolicyComparison, compare_policies
from ..faults.ambient import apply_ambient_faults
from ..scenarios.ambient import ambient_sweep
from ..scenarios.generate import Scenario, generate_scenarios
from ..scenarios.report import SWEEP_HEADERS
from ..scenarios.spec import BUILTIN_SPECS
from ..units import MiB, format_size, sum_left
from .base import ExperimentResult, register_grid_experiment, resolve_scale

__all__ = [
    "SWEEP_FAMILY",
    "CUSTOM_SWEEP_ID",
    "ALL_SWEEP_IDS",
    "SWEEP_SEED",
    "SWEEP_SAMPLES",
    "run_scenario_point",
    "sweep_grid",
]

#: Generator seed of the pinned family (the committed goldens).
SWEEP_SEED = 1

#: Scenarios per sweep by scale.  Quick stays golden/CI-cheap; full is
#: the mega-sweep setting ("hundreds" comes from running several family
#: members and seeds through the shared cache).
SWEEP_SAMPLES = {"quick": 3, "default": 12, "full": 48}

#: The pinned family: one experiment per built-in cookbook spec.
SWEEP_FAMILY = ("sweep_homogeneous", "sweep_heterogeneous", "sweep_leafspine")

#: The ambient-request-driven experiment behind ``sweep --spec``.
CUSTOM_SWEEP_ID = "sweep_custom"

ALL_SWEEP_IDS = SWEEP_FAMILY + (CUSTOM_SWEEP_ID,)


def _with_ambient_faults(scenarios: t.Sequence[Scenario]) -> tuple[Scenario, ...]:
    """Degrade every scenario's config under the ambient fault plan.

    The same ``--fault-plan`` contract as the figure grids: point keys
    hash the *faulted* config, so degraded runs never alias clean ones.
    """
    return tuple(
        dataclasses.replace(
            scenario, config=apply_ambient_faults(scenario.config)
        )
        for scenario in scenarios
    )


def sweep_grid(spec_name: str, scale: str) -> tuple[Scenario, ...]:
    """The pinned grid of one family member: pure generator expansion."""
    scale = resolve_scale(scale)
    return _with_ambient_faults(
        generate_scenarios(
            BUILTIN_SPECS[spec_name], SWEEP_SAMPLES[scale], SWEEP_SEED, scale
        )
    )


def _custom_grid(scale: str) -> tuple[Scenario, ...]:
    """``sweep_custom``'s grid: whatever request is ambient (CLI --spec)."""
    request = ambient_sweep()
    return _with_ambient_faults(
        generate_scenarios(
            request.spec, request.samples, request.seed, resolve_scale(scale)
        )
    )


def run_scenario_point(scenario: Scenario) -> PolicyComparison:
    """One scenario's A/B comparison (deterministic)."""
    return compare_policies(
        scenario.config,
        baseline=scenario.baseline,
        treatment=scenario.treatment,
    )


def _assemble(
    exp_id: str, title: str
) -> t.Callable[[str, t.Sequence[Scenario], t.Sequence[PolicyComparison]], ExperimentResult]:
    def assemble(
        scale: str,
        specs: t.Sequence[Scenario],
        rows: t.Sequence[PolicyComparison],
    ) -> ExperimentResult:
        table: list[tuple[t.Any, ...]] = []
        deltas: list[float] = []
        for scenario, cmp in zip(specs, rows):
            features = scenario.features
            delta = round(cmp.bandwidth_speedup * 100, 2)
            deltas.append(delta)
            table.append(
                (
                    scenario.index,
                    features.klass,
                    features.n_clients,
                    features.n_servers,
                    features.fan_in,
                    features.tiers,
                    features.oversubscription,
                    features.link_ratio,
                    features.mss_label,
                    format_size(scenario.config.workload.transfer_size),
                    features.operation,
                    round(cmp.baseline.bandwidth / MiB, 1),
                    round(cmp.treatment.bandwidth / MiB, 1),
                    delta,
                )
            )
        wins = sum(1 for delta in deltas if delta > 0)
        measured = {
            "n_scenarios": float(len(deltas)),
            "win_rate": round(wins / len(deltas), 4) if deltas else 0.0,
            "mean_delta_pct": (
                round(sum_left(deltas) / len(deltas), 2) if deltas else 0.0
            ),
            "min_delta_pct": min(deltas) if deltas else 0.0,
            "max_delta_pct": max(deltas) if deltas else 0.0,
        }
        return ExperimentResult(
            exp_id=exp_id,
            title=title,
            headers=SWEEP_HEADERS,
            rows=tuple(table),
            paper={},
            measured=measured,
            notes=(
                "delta_pct is the treatment's goodput gain over the "
                "baseline at each generated scenario; aggregate win-rate "
                "tables come from `sais-repro sweep` "
                "(repro.scenarios.report).",
            ),
        )

    return assemble


def _register(exp_id: str, spec_name: str, title: str) -> None:
    register_grid_experiment(
        exp_id,
        grid=functools.partial(sweep_grid, spec_name),
        run_point=run_scenario_point,
        assemble=_assemble(exp_id, title),
    )


_register(
    "sweep_homogeneous",
    "homogeneous",
    "scenario sweep: homogeneous paper-testbed clusters",
)
_register(
    "sweep_heterogeneous",
    "heterogeneous",
    "scenario sweep: heterogeneous client classes + mixed links",
)
_register(
    "sweep_leafspine",
    "leafspine",
    "scenario sweep: oversubscribed leaf-spine fabrics",
)

register_grid_experiment(
    CUSTOM_SWEEP_ID,
    grid=_custom_grid,
    run_point=run_scenario_point,
    assemble=_assemble(
        CUSTOM_SWEEP_ID, "scenario sweep: ambient --spec request"
    ),
)
