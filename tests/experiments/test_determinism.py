"""Determinism proofs for the experiment runner.

The pool runner is only safe because every ``run_point`` is a pure
function of its spec: same spec, same bits, in any process.  These tests
pin that property for representative experiments spanning the
point-runner families (policy comparisons such as the Fig. 5 grid, the
memsim sweep, single-policy runs and generated scenarios):

(a) twice in the same process, each call a new simulation;
(b) in a fresh subprocess (fresh interpreter, nothing shared);
(c) via the pool runner with ``jobs=4`` against ``jobs=1`` and against
    the committed quick goldens.

The ``jobs=1`` side is the session's ``quick_run``: every experiment
run once, in this process, by the same runner the CLI uses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.base import get_grid_experiment
from repro.runner import ExperimentRunner, plan_experiment

from .conftest import golden_path

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


def _result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestInProcessDeterminism:
    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_run_point_rows_bit_identical(self, exp_id):
        experiment = get_grid_experiment(exp_id)
        specs = experiment.grid("quick")
        assert specs, "grid must not be empty"
        first = [experiment.run_point(spec) for spec in specs]
        second = [experiment.run_point(spec) for spec in specs]
        assert first == second
        # A memo would hand the first call's row back: equal rows prove
        # determinism only if the second call simulated again.
        assert all(b is not a for a, b in zip(first, second))

    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_full_result_bit_identical(self, exp_id, quick_run):
        fresh = ExperimentRunner(use_cache=False).run(exp_id, scale="quick")
        assert _result_json(fresh) == _result_json(quick_run.results[exp_id])


class TestSubprocessDeterminism:
    """A fresh interpreter produces the same bytes."""

    @pytest.mark.parametrize("exp_id", REPRESENTATIVE)
    def test_subprocess_matches_in_process(self, exp_id, quick_run):
        script = (
            "import json, sys\n"
            "from repro.runner import ExperimentRunner\n"
            "result = ExperimentRunner(use_cache=False).run(\n"
            f"    {exp_id!r}, scale='quick'\n"
            ")\n"
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
        assert proc.stdout == _result_json(quick_run.results[exp_id])


class TestPoolDeterminism:
    """``--jobs 4`` output is byte-identical to ``--jobs 1``."""

    @pytest.fixture(scope="class")
    def pooled(self):
        return ExperimentRunner(jobs=4, use_cache=False).run_many(
            REPRESENTATIVE, scale="quick"
        )

    def test_pool_matches_serial(self, pooled, quick_run):
        tasks: dict = {}
        for exp_id in REPRESENTATIVE:
            plan_experiment(exp_id, "quick", tasks)
        assert pooled.executed_tasks == len(tasks)
        assert [report.exp_id for report in pooled.reports] == list(
            REPRESENTATIVE
        )
        for report in pooled.reports:
            assert _result_json(report.result) == _result_json(
                quick_run.results[report.exp_id]
            )

    def test_pool_matches_registry_path(self, pooled):
        """Pooled results equal the committed quick goldens."""
        for report in pooled.reports:
            golden = json.loads(
                golden_path(report.exp_id, "quick").read_text(encoding="utf-8")
            )
            assert report.result.to_dict() == golden
