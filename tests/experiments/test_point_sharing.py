"""Which grid points experiments share, read from plans alone.

``GridExperiment.keys`` is the one name of a grid point, and the runner
executes each name once per invocation.  These tests plan grids with
:func:`~repro.runner.plan_experiment` and compare keys; none of them
simulates.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.cluster.simulation import compare_policies
from repro.config import ClusterConfig
from repro.experiments import all_experiment_ids
from repro.experiments.base import SCALES, GridExperiment, get_grid_experiment
from repro.runner import plan_experiment
from repro.runner.cache import config_digest

#: The paper's figures and the Sec. III model (perfbench's ``paper_figs``).
PAPER_FIGS = (
    "fig5_bandwidth_3g",
    "fig6_missrate_1g",
    "fig7_missrate_3g",
    "fig8_cpuutil_1g",
    "fig9_cpuutil_3g",
    "fig10_unhalted_1g",
    "fig11_unhalted_3g",
    "fig12_multiclient",
    "fig14_memsim",
    "sec3_model",
    "sec5c_bandwidth_1g",
)

#: Unique tasks planned for every experiment and for ``PAPER_FIGS``.  A
#: grid or key change that stops two experiments sharing a cell raises
#: these; one that merges cells that are not equal lowers them.
PLANNED_TASKS = {"quick": (77, 24), "default": (152, 71), "full": (264, 71)}


def _planned_tasks(exp_ids, scale: str) -> int:
    tasks: dict = {}
    for exp_id in exp_ids:
        plan_experiment(exp_id, scale, tasks)
    return len(tasks)


@pytest.mark.parametrize("scale", SCALES)
def test_planned_unique_tasks(scale):
    assert (
        _planned_tasks(all_experiment_ids(), scale),
        _planned_tasks(PAPER_FIGS, scale),
    ) == PLANNED_TASKS[scale]


def _same_cell(spec: ClusterConfig, cell: ClusterConfig) -> bool:
    """Whether ``spec`` is ``cell``, its run length aside."""
    workload = dataclasses.replace(
        spec.workload, file_size=cell.workload.file_size
    )
    return spec.replace(workload=workload) == cell


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("exp_id", ["sec3_model", "ablation_costmodel"])
def test_fig5_cells_are_shared_at_every_scale(exp_id, scale):
    """A cell the Fig. 5 grid also has runs at the grid's length, once."""
    fig5 = get_grid_experiment("fig5_bandwidth_3g")
    cells = fig5.grid(scale)
    experiment = get_grid_experiment(exp_id)
    specs = experiment.grid(scale)
    on_grid = [
        key
        for spec, key in zip(specs, experiment.keys(specs))
        if any(_same_cell(spec, cell) for cell in cells)
    ]
    assert on_grid
    assert set(on_grid) <= set(fig5.keys(cells))


def _experiment(exp_id: str, run_point) -> GridExperiment:
    return GridExperiment(
        exp_id=exp_id, grid=lambda scale: (), run_point=run_point, assemble=None
    )


class TestPointKeys:
    specs = (ClusterConfig(n_servers=8), ClusterConfig(n_servers=16))

    def test_digest_first_then_run_function(self):
        assert _experiment("a", compare_policies).keys(self.specs) == [
            f"{config_digest(spec)}:repro.cluster.simulation.compare_policies"
            for spec in self.specs
        ]

    def test_named_not_identified(self):
        """A ``functools.wraps`` wrapper keeps the points it wraps shared."""

        @functools.wraps(compare_policies)
        def timed(spec):
            return compare_policies(spec)

        assert _experiment("b", timed).keys(self.specs) == _experiment(
            "a", compare_policies
        ).keys(self.specs)

    def test_local_functions_scope_points_to_the_experiment(self):
        """Closures of one factory share a name, not their state."""

        def run(spec):
            return spec

        for run_point in (run, lambda spec: spec):
            for exp_id in ("a", "b"):
                assert _experiment(exp_id, run_point).keys(self.specs) == [
                    f"{config_digest(spec)}:{exp_id}" for spec in self.specs
                ]
