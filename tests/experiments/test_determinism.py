"""Determinism proofs for the parallel runner.

The pool runner is only safe because every ``run_point`` is a pure
function of its spec: same spec, same bits, in any process.  These tests
pin that property for representative experiments spanning the
point-runner families (policy comparisons such as the Fig. 5 grid, the
memsim sweep, single-policy runs and generated scenarios):

(a) twice in the same process,
(b) in a fresh subprocess (fresh interpreter, fresh caches),
(c) via the pool runner with ``jobs=4`` vs ``jobs=1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import run_experiment_by_id
from repro.experiments.base import get_grid_experiment
from repro.runner import ExperimentRunner

REPRESENTATIVE = (
    "fig5_bandwidth_3g",
    "fig14_memsim",
    "ablation_policies",
    # Exercises every registered policy (including the NIC-steering
    # schemes) plus the seeded-migration reordering pathology.
    "steering_reorder_pathology",
    # Exercises the scenario generator's (spec, seed) -> config pipeline
    # end to end under every leg (in-process, subprocess, --jobs pool).
    "sweep_heterogeneous",
)


def _result_json(exp_id: str, scale: str = "quick") -> str:
    return json.dumps(
        run_experiment_by_id(exp_id, scale=scale).to_dict(), sort_keys=True
    )


class TestInProcessDeterminism:
    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_run_point_rows_bit_identical(self, exp_id):
        experiment = get_grid_experiment(exp_id)
        specs = experiment.grid("quick")
        assert specs, "grid must not be empty"
        first = [experiment.run_point(spec) for spec in specs]
        second = [experiment.run_point(spec) for spec in specs]
        assert first == second

    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_full_result_bit_identical(self, exp_id):
        assert _result_json(exp_id) == _result_json(exp_id)


class TestSubprocessDeterminism:
    """A fresh interpreter (no warm lru_caches) produces the same bytes."""

    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_subprocess_matches_in_process(self, exp_id):
        script = (
            "import json, sys\n"
            "from repro.experiments import run_experiment_by_id\n"
            f"result = run_experiment_by_id({exp_id!r}, scale='quick')\n"
            "sys.stdout.write(json.dumps(result.to_dict(), sort_keys=True))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout == _result_json(exp_id)


class TestPoolDeterminism:
    """``--jobs 4`` output is byte-identical to ``--jobs 1``."""

    def test_pool_matches_serial(self):
        serial = ExperimentRunner(jobs=1, use_cache=False).run_many(
            REPRESENTATIVE, scale="quick"
        )
        pooled = ExperimentRunner(jobs=4, use_cache=False).run_many(
            REPRESENTATIVE, scale="quick"
        )
        assert serial.executed_tasks == pooled.executed_tasks
        serial_json = json.dumps(
            [r.to_dict() for r in serial.results], sort_keys=True
        )
        pooled_json = json.dumps(
            [r.to_dict() for r in pooled.results], sort_keys=True
        )
        assert serial_json == pooled_json

    def test_pool_matches_registry_path(self):
        pooled = ExperimentRunner(jobs=4, use_cache=False).run_many(
            REPRESENTATIVE, scale="quick"
        )
        for report in pooled.reports:
            assert report.result.to_dict() == run_experiment_by_id(
                report.exp_id, scale="quick"
            ).to_dict()
