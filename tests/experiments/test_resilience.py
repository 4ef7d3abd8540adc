"""The resilience sweeps: registration, recovery counters, determinism,
zero-fault golden identity, the CLI's --fault-plan hardening and scope,
and the known answer of a reordering --fault-plan."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.experiments import all_experiment_ids
from repro.experiments.base import get_grid_experiment
from repro.experiments.grids import sweep_fig5_specs
from repro.faults import FaultPlan, using_fault_plan
from repro.runner import ExperimentRunner

from .conftest import golden_path

RESILIENCE_IDS = ("resilience_loss_sweep", "resilience_straggler_sweep")


class TestRegistration:
    def test_both_sweeps_registered(self):
        ids = set(all_experiment_ids())
        assert set(RESILIENCE_IDS).issubset(ids)

    @pytest.mark.parametrize("exp_id", RESILIENCE_IDS)
    def test_grid_decomposition_available(self, exp_id):
        experiment = get_grid_experiment(exp_id)
        specs = experiment.grid("quick")
        assert len(specs) >= 3
        # The first cell is the fault-free retention base.
        assert specs[0].faults is None
        assert all(spec.faults is not None for spec in specs[1:])


class TestQuickRuns:
    @pytest.fixture(scope="class")
    def loss_result(self, quick_run):
        return quick_run.results["resilience_loss_sweep"]

    @pytest.fixture(scope="class")
    def straggler_result(self, quick_run):
        return quick_run.results["resilience_straggler_sweep"]

    def test_loss_sweep_reports_recovery_counters(self, loss_result):
        by_header = dict(zip(loss_result.headers, zip(*loss_result.rows)))
        retransmits = [int(v) for v in by_header["retransmits"]]
        fallbacks = [int(v) for v in by_header["fallback steered"]]
        assert retransmits[0] == 0  # fault-free base row
        assert any(v > 0 for v in retransmits[1:])
        assert any(v > 0 for v in fallbacks[1:])

    def test_loss_sweep_goodput_ratio_degrades(self, loss_result):
        ratios = [float(row[-1]) for row in loss_result.rows]
        assert ratios[0] == 1.0
        assert ratios[-1] < 1.0

    def test_straggler_sweep_exercises_retries(self, straggler_result):
        by_header = dict(
            zip(straggler_result.headers, zip(*straggler_result.rows))
        )
        dropped = [int(v) for v in by_header["requests dropped"]]
        retries = [int(v) for v in by_header["strip retries"]]
        # The top slowdown level includes the transient-failure window.
        assert dropped[-1] > 0
        assert retries[-1] > 0

    def test_retention_measured_for_both_policies(self, straggler_result):
        assert "sais_retention_at_worst" in straggler_result.measured
        worst = straggler_result.measured["sais_retention_at_worst"]
        assert 0 < worst < 1  # an 8x straggler genuinely hurts


class TestDeterminism:
    def test_pool_matches_serial(self):
        serial = ExperimentRunner(jobs=1, use_cache=False).run_many(
            RESILIENCE_IDS, scale="quick"
        )
        pooled = ExperimentRunner(jobs=4, use_cache=False).run_many(
            RESILIENCE_IDS, scale="quick"
        )
        serial_json = json.dumps(
            [r.to_dict() for r in serial.results], sort_keys=True
        )
        pooled_json = json.dumps(
            [r.to_dict() for r in pooled.results], sort_keys=True
        )
        assert serial_json == pooled_json

    def test_ambient_plan_survives_pool_workers(self):
        """The ambient plan is baked into the pickled specs, so pooled
        and serial runs of a *faulted* standard sweep agree bit-for-bit."""
        plan = FaultPlan(loss_prob=0.05, seed=4, retransmit_timeout=100e-6)
        with using_fault_plan(plan):
            serial = ExperimentRunner(jobs=1, use_cache=False).run_many(
                ["fig5_bandwidth_3g"], scale="quick"
            )
            pooled = ExperimentRunner(jobs=4, use_cache=False).run_many(
                ["fig5_bandwidth_3g"], scale="quick"
            )
        assert (
            serial.results[0].to_dict() == pooled.results[0].to_dict()
        )


class TestZeroFaultGoldenIdentity:
    def test_null_ambient_plan_matches_golden(self):
        """All probabilities zero => the standard experiments' output is
        byte-identical to the checked-in fault-free goldens."""
        from .conftest import GOLDENS_DIR

        golden = json.loads(
            (GOLDENS_DIR / "fig5_bandwidth_3g.quick.json").read_text()
        )
        with using_fault_plan(FaultPlan()):
            payload = ExperimentRunner(use_cache=False).run(
                "fig5_bandwidth_3g", scale="quick"
            ).to_dict()
        assert payload == golden

    def test_null_ambient_plan_builds_unfaulted_configs(self):
        with using_fault_plan(FaultPlan()):
            specs = sweep_fig5_specs("quick", nic_gigabits=3)
        # The null plan is attached (it is not None)...
        assert all(spec.faults is not None for spec in specs)
        # ...but builds no injector, so behaviour is identical (the
        # golden comparison above proves it end to end).
        assert all(spec.faults.is_null for spec in specs)


class TestCliHardening:
    def test_malformed_plan_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{broken")
        code = main(
            ["run", "fig14_memsim", "--scale", "quick",
             "--fault-plan", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sais-repro:" in err and "plan.json" in err

    def test_unknown_plan_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"loss_probability": 0.1}))
        assert (
            main(["run", "fig14_memsim", "--scale", "quick",
                  "--fault-plan", str(path)]) == 2
        )
        assert "loss_probability" in capsys.readouterr().err

    def test_missing_plan_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert (
            main(["run", "fig14_memsim", "--scale", "quick",
                  "--fault-plan", missing]) == 2
        )
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"loss_prob": 0.02, "max_strip_retries": 2.5}, "max_strip_retries"),
            ({"loss_prob": 0.02, "seed": "abc"}, "seed"),
            ({"loss_prob": 0.02, "seed": 1.5}, "seed"),
            ({"straggler_servers": [True], "straggler_slowdown": 2.0},
             "straggler_servers"),
            ({"server_failure_windows": [[True, 0.0, 0.001]]},
             "server_failure_windows"),
        ],
    )
    def test_non_int_plan_field_exits_2(self, tmp_path, capsys, payload, field):
        # Each of these used to load, then crash mid-run with a traceback
        # (or, for a bool server index, run silently as server 1).
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        code = main(
            ["run", "fig5_bandwidth_3g", "--scale", "quick", "--no-cache",
             "--fault-plan", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_fault_seed_requires_fault_plan(self, capsys):
        assert (
            main(["run", "fig14_memsim", "--scale", "quick",
                  "--fault-seed", "7"]) == 2
        )
        assert "--fault-plan" in capsys.readouterr().err

    def test_valid_plan_accepted(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"loss_prob": 0.0}))
        code = main(
            ["run", "sec3_model", "--scale", "quick", "--no-cache",
             "--fault-plan", str(path), "--fault-seed", "7"]
        )
        assert code == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_plan_naming_a_missing_server_exits_2_before_any_task(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        # The plan is refused while the grid is planned, so no point may
        # reach execution under any worker count.
        def refuse(runner, tasks):
            pytest.fail(f"{len(tasks)} task(s) reached execution")

        monkeypatch.setattr(ExperimentRunner, "_execute", refuse)
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"straggler_servers": [60], "straggler_slowdown": 2.0})
        )
        code = main(
            ["run", "all", "--scale", "quick", "--no-cache", "--jobs", jobs,
             "--fault-plan", str(path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "sais-repro: fault plan targets server 60 but the cluster has "
            "only 8 servers\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_strip_give_up_fails_only_its_experiment(
        self, tmp_path, capsys, jobs
    ):
        # Server 0 stays down longer than the one retry waits, so every
        # fig5 point gives up on a strip; sec3_model still runs.
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "server_failure_windows": [[0, 0.0, 10.0]],
                    "max_strip_retries": 1,
                    "strip_retry_timeout": 0.001,
                }
            )
        )
        code = main(
            ["run", "fig5_bandwidth_3g", "sec3_model", "--scale", "quick",
             "--no-cache", "--jobs", jobs, "--fault-plan", str(path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        failed = [
            line for line in captured.err.splitlines() if "FAILED" in line
        ]
        assert len(failed) == 1
        assert failed[0].startswith(
            "sais-repro: fig5_bandwidth_3g FAILED: 4 of 4 point(s) failed: "
        )
        assert "StripRetryExhaustedError: strip 0 " in failed[0]
        assert captured.out.startswith("Sec. III — analytic bounds")

    def test_resilience_sweeps_run_from_cli(self, capsys):
        code = main(
            ["run", "resilience_loss_sweep", "--scale", "quick",
             "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "retention" in out


class TestPlanScope:
    def test_plan_does_not_outlive_its_command(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"loss_prob": 0.02, "seed": 7}))
        command = ["run", "fig5_bandwidth_3g", "--scale", "quick", "--json"]
        assert main([*command, "--fault-plan", str(path)]) == 0
        faulted = json.loads(capsys.readouterr().out)
        assert main(command) == 0
        (plain,) = json.loads(capsys.readouterr().out)
        golden = json.loads(
            golden_path("fig5_bandwidth_3g", "quick").read_text()
        )
        assert faulted != [golden]
        assert plain == golden


class TestReorderingPlanKnownAnswer:
    def test_output_matches_known_answer(self, tmp_path, capsys):
        """Every hazard of a plan on a paper experiment, reordering
        included, pinned to the sha256 of its 1,088-byte ``--json``
        output.  The per-segment reference wire path printed the same
        bytes before it was deleted."""
        path = tmp_path / "reorder-plan.json"
        path.write_text(
            json.dumps(
                {
                    "loss_prob": 0.02,
                    "strip_option_prob": 0.02,
                    "corrupt_prob": 0.02,
                    "reorder_prob": 0.2,
                }
            )
        )
        code = main(
            ["run", "fig5_bandwidth_3g", "--scale", "quick", "--no-cache",
             "--json", "--fault-plan", str(path), "--fault-seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 1088
        assert hashlib.sha256(out).hexdigest() == (
            "f9d65ffdb9e440a48d70663e56bb4cc79205bf84d8ddb2f83f802be12b93ff01"
        )
