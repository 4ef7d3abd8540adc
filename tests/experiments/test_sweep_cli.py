"""The ``sais-repro sweep`` subcommand: wiring, exits, determinism.

The generator-level byte-reproducibility contract lives in
``tests/scenarios/test_generate.py``; here we pin what the CLI adds on
top — ambient ``--spec`` installation, the uniform exit-2 error
contract, cache replay, and byte-identical ``--report`` artifacts
across invocations and ``--jobs`` fan-outs.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.scenarios import set_ambient_sweep

SPEC_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs"
)
HETERO_SPEC = str(SPEC_DIR / "heterogeneous.json")


@pytest.fixture(autouse=True)
def reset_ambient_sweep():
    """Never leak one test's --spec request into the next."""
    yield
    set_ambient_sweep(None)


class TestSweepRuns:
    def test_pinned_family_is_the_default(self, capsys):
        assert main(["sweep", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep aggregate" in out
        assert "sweep_homogeneous" in out
        assert "sweep_leafspine" in out

    def test_spec_defaults_to_sweep_custom(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    HETERO_SPEC,
                    "--samples",
                    "3",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "scenario sweep aggregate: 3 scenario(s)" in captured.out
        assert "3 task(s) executed" in captured.err

    def test_json_output_parses(self, capsys):
        assert main(["sweep", "sweep_homogeneous", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_scenarios"] == 3
        assert "buckets" in payload

    def test_second_invocation_is_all_cache_hits(self, capsys):
        assert main(["sweep", "sweep_leafspine"]) == 0
        capsys.readouterr()
        assert main(["sweep", "sweep_leafspine"]) == 0
        assert "0 task(s) executed" in capsys.readouterr().err


class TestSweepErrors:
    def test_samples_without_spec_is_exit_2(self, capsys):
        assert main(["sweep", "--samples", "4"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_seed_without_spec_is_exit_2(self):
        assert main(["sweep", "--seed", "7"]) == 2

    def test_malformed_spec_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["sweep", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "nope" in err

    def test_missing_spec_file_is_exit_2(self, tmp_path):
        assert main(["sweep", "--spec", str(tmp_path / "absent.json")]) == 2

    def test_unknown_sweep_id_is_exit_2(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(["sweep", "fig5_bandwidth_3g", "--cache-dir", str(cache_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sais-repro: ")
        assert "'fig5_bandwidth_3g'" in lines[0]
        assert "sweep_homogeneous" in lines[0]  # lists what is available
        assert not cache_dir.exists()  # rejected before the runner exists


class TestReportDeterminism:
    def run_report(self, tmp_path, name, *extra):
        path = tmp_path / name
        code = main(
            [
                "sweep",
                "--spec",
                HETERO_SPEC,
                "--samples",
                "4",
                "--seed",
                "5",
                "--report",
                str(path),
                *extra,
            ]
        )
        assert code == 0
        return path.read_bytes()

    def test_reports_byte_identical_across_invocations(self, tmp_path):
        first = self.run_report(tmp_path, "r1.json")
        second = self.run_report(tmp_path, "r2.json")
        assert first == second

    def test_report_byte_identical_under_jobs(self, tmp_path):
        serial = self.run_report(tmp_path, "serial.json")
        pooled = self.run_report(
            tmp_path, "pooled.json", "--jobs", "2", "--no-cache"
        )
        assert serial == pooled

    def test_report_is_the_json_output(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert (
            main(
                [
                    "sweep",
                    "sweep_homogeneous",
                    "--report",
                    str(path),
                    "--json",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.encode() == path.read_bytes()

    def test_unwritable_report_is_exit_2(
        self, tmp_path, capsys, isolated_cache_dir
    ):
        report = tmp_path / "no" / "dir" / "r.json"
        assert (
            main(
                [
                    "sweep",
                    "sweep_homogeneous",
                    "--report",
                    str(report),
                    "--progress",
                ]
            )
            == 2
        )
        # Rejected before planning: no task ran, so nothing was printed
        # or cached.
        captured = capsys.readouterr()
        assert captured.err == (
            f"sais-repro: --report {str(report)!r}: parent directory "
            f"{str(report.parent)!r} does not exist\n"
        )
        assert captured.out == ""
        assert not isolated_cache_dir.exists()
