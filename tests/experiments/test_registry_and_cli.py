"""Tests for the experiment registry, result shape and the CLI."""

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments import all_experiment_ids
from repro.experiments.base import (
    ExperimentResult,
    get_grid_experiment,
    register_grid_experiment,
    resolve_scale,
)
from repro.runner import ExperimentRunner


EXPECTED_IDS = {
    "fig5_bandwidth_3g",
    "sec5c_bandwidth_1g",
    "fig6_missrate_1g",
    "fig7_missrate_3g",
    "fig8_cpuutil_1g",
    "fig9_cpuutil_3g",
    "fig10_unhalted_1g",
    "fig11_unhalted_3g",
    "fig12_multiclient",
    "fig14_memsim",
    "sec3_model",
    "ablation_policies",
    "ablation_costmodel",
    "ablation_migration",
    "ablation_write_path",
    "ablation_stripsize",
    "extension_modern_hw",
    "extension_napi",
    "extension_collective",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert EXPECTED_IDS.issubset(set(all_experiment_ids()))

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_grid_experiment("fig99")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(use_cache=False).run(
                "fig14_memsim", scale="enormous"
            )

    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_resolve_scale_passes_known(self, scale):
        assert resolve_scale(scale) == scale

    def test_resolve_scale_rejects_unknown_with_choices(self):
        with pytest.raises(ConfigError) as excinfo:
            resolve_scale("enormous")
        message = str(excinfo.value)
        assert "enormous" in message
        assert "quick" in message and "full" in message

    def test_direct_experiment_call_rejects_unknown_scale(self):
        # Before resolve_scale this surfaced as a bare KeyError deep in
        # the scale-preset lookup.
        with pytest.raises(ConfigError):
            get_grid_experiment("fig14_memsim").grid("enormous")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_grid_experiment(
                "fig14_memsim",
                grid=lambda scale: (),
                run_point=lambda spec: None,
                assemble=lambda scale, specs, rows: None,
            )
        # The rejected registration left the original in place.
        assert get_grid_experiment("fig14_memsim").grid("quick")


class TestResultShape:
    @pytest.fixture(scope="class")
    def memsim_result(self, quick_run):
        return quick_run.results["fig14_memsim"]

    def test_rows_match_headers(self, memsim_result):
        for row in memsim_result.rows:
            assert len(row) == len(memsim_result.headers)

    def test_measured_covers_paper_keys(self, memsim_result):
        assert set(memsim_result.paper).issubset(set(memsim_result.measured))

    def test_render_contains_table_and_headline(self, memsim_result):
        rendered = memsim_result.render()
        assert memsim_result.title in rendered
        assert "paper=" in rendered

    def test_render_without_paper_keys(self):
        result = ExperimentResult(
            exp_id="x",
            title="T",
            headers=("a",),
            rows=(("1",),),
            paper={},
            measured={},
        )
        assert "paper=" not in result.render()


class TestQuickScaleAllExperiments:
    """Every registered experiment completes at quick scale."""

    @pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
    def test_runs(self, exp_id, quick_run):
        result = quick_run.results[exp_id]
        assert result.exp_id == exp_id
        assert result.rows
        assert result.measured


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14_memsim" in out

    def test_run_one(self, capsys):
        assert main(["run", "fig14_memsim", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Si-SAIs" in out

    def test_run_unknown(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["run", "nope", "--cache-dir", str(cache_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sais-repro: unknown experiment 'nope'")
        assert "fig5_bandwidth_3g" in lines[0]  # lists what is available
        assert not cache_dir.exists()  # rejected before the runner exists

    @pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
    def test_run_rejects_bad_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig14_memsim", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_multiple(self, capsys):
        assert (
            main(["run", "fig14_memsim", "sec3_model", "--scale", "quick"]) == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 14" in out and "Sec. III" in out

    def test_run_json(self, capsys):
        import json

        assert main(["run", "fig14_memsim", "--scale", "quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["exp_id"] == "fig14_memsim"
        assert payload[0]["rows"]
        assert "peak_speedup_pct" in payload[0]["measured"]

    def test_run_plot(self, capsys):
        assert main(["run", "fig14_memsim", "--scale", "quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "█" in out

    def test_summary_grid(self, capsys, quick_run):
        # Every result is in the session run's cache: nothing simulates.
        cache_dir = str(quick_run.cache_dir)
        assert (
            main(["summary", "--scale", "quick", "--cache-dir", cache_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "paper" in out and "measured" in out
        assert "fig14_memsim" in out
        assert "peak_speedup_pct" in out

    def test_to_dict_roundtrips_through_json(self, quick_run):
        import json

        result = quick_run.results["fig14_memsim"]
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["headers"] == list(result.headers)
        assert len(payload["rows"]) == len(result.rows)
