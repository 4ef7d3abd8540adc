"""Cache hit/miss/invalidation coverage for the result cache.

The invariants: the key moves when *anything* that determines a result
moves (config fields, the grid, the package version); corrupt entries
are misses, never crashes; a cache directory that cannot be created is
a one-line ``ConfigError`` (exit code 2) before anything runs;
``--no-cache`` bypasses reads and writes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.cli import main
from repro.cluster.simulation import compare_policies
from repro.config import ClusterConfig, WorkloadConfig
from repro.errors import ConfigError
from repro.experiments.base import (
    ExperimentResult,
    GridExperiment,
    register_grid_experiment,
    unregister_experiment,
)
from repro.runner import ExperimentRunner, ResultCache, result_key
from repro.runner.cache import CACHE_DIR_ENV, canonical_json, config_digest
from repro.units import MiB


# -- key construction --------------------------------------------------


def _point_keys(specs):
    """The point keys a runner builds the result key of ``specs`` from."""
    return GridExperiment(
        "exp", grid=None, run_point=compare_policies, assemble=None
    ).keys(specs)


class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        specs = [ClusterConfig(n_servers=8), ClusterConfig(n_servers=16)]
        assert result_key("exp", "quick", _point_keys(specs)) == result_key(
            "exp", "quick", _point_keys(specs)
        )

    def test_changes_with_exp_id_and_scale(self):
        key = result_key("exp", "quick", [])
        assert key != result_key("other", "quick", [])
        assert key != result_key("exp", "full", [])

    @pytest.mark.parametrize(
        "change",
        [
            {"n_servers": 9},
            {"strip_size": 128 * 1024},
            {"seed": 2},
            {"workload": WorkloadConfig(transfer_size=2 * MiB, file_size=8 * MiB)},
        ],
    )
    def test_changes_when_any_config_field_changes(self, change):
        base = ClusterConfig()
        varied = dataclasses.replace(base, **change)
        assert config_digest(base) != config_digest(varied)
        assert result_key("exp", "quick", _point_keys([base])) != result_key(
            "exp", "quick", _point_keys([varied])
        )

    def test_changes_when_version_changes(self, monkeypatch):
        keys = _point_keys([ClusterConfig()])
        before = result_key("exp", "quick", keys)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert result_key("exp", "quick", keys) != before

    def test_dataclass_type_disambiguates_equal_fields(self):
        @dataclasses.dataclass(frozen=True)
        class A:
            x: int = 1

        @dataclasses.dataclass(frozen=True)
        class B:
            x: int = 1

        assert config_digest(A()) != config_digest(B())

    def test_canonical_json_sorts_and_normalizes(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )

    def test_unhashable_payload_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


# -- a tiny instrumented experiment ------------------------------------

_CALLS: list[str] = []


def _make_experiment(exp_id: str):
    def grid(scale):
        return (1, 2, 3)

    def run_point(spec):
        _CALLS.append(f"{exp_id}:{spec}")
        return spec * 10

    def assemble(scale, specs, rows):
        return ExperimentResult(
            exp_id=exp_id,
            title="instrumented",
            headers=("x",),
            rows=tuple((row,) for row in rows),
            paper={},
            # Deliberately not alphabetical: pins that cached replays
            # preserve insertion order, not json sort order.
            measured={"total": float(sum(rows)), "count": float(len(rows))},
        )

    return register_grid_experiment(
        exp_id, grid=grid, run_point=run_point, assemble=assemble
    )


@pytest.fixture
def instrumented_experiment():
    exp_id = "test_cache_instrumented"
    _make_experiment(exp_id)
    _CALLS.clear()
    yield exp_id
    unregister_experiment(exp_id)
    _CALLS.clear()


def test_closures_of_one_factory_share_no_point():
    """Equal specs, equal run-function names, different closed-over state."""
    exp_ids = ("test_cache_closure_a", "test_cache_closure_b")
    try:
        for exp_id in exp_ids:
            _make_experiment(exp_id)
        _CALLS.clear()
        summary = ExperimentRunner(jobs=1, use_cache=False).run_many(
            exp_ids, scale="quick"
        )
        assert summary.executed_tasks == 6
        assert sorted(_CALLS) == [
            f"{exp_id}:{spec}" for exp_id in exp_ids for spec in (1, 2, 3)
        ]
    finally:
        for exp_id in exp_ids:
            unregister_experiment(exp_id)
        _CALLS.clear()


# -- hit / miss / bypass behaviour -------------------------------------


class TestCacheBehaviour:
    def test_second_run_executes_nothing(self, instrumented_experiment, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run_many([instrumented_experiment], scale="quick")
        assert first.executed_tasks == 3
        assert len(_CALLS) == 3
        second = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_many(
            [instrumented_experiment], scale="quick"
        )
        assert second.executed_tasks == 0
        assert len(_CALLS) == 3, "cache hit must not re-run any point"
        assert second.reports[0].cached
        # Order-sensitive comparison: a cached replay must be
        # byte-identical to the original, including dict key order.
        assert json.dumps(second.reports[0].result.to_dict()) == json.dumps(
            first.reports[0].result.to_dict()
        )

    def test_no_cache_bypasses_reads_and_writes(
        self, instrumented_experiment, tmp_path
    ):
        # Prime a cache entry, then run with use_cache=False: it must
        # neither read the entry nor refresh/extend the directory.
        ExperimentRunner(jobs=1, cache_dir=tmp_path).run(
            instrumented_experiment, scale="quick"
        )
        entries_before = sorted(p.name for p in tmp_path.rglob("*.json"))
        _CALLS.clear()
        summary = ExperimentRunner(
            jobs=1, cache_dir=tmp_path, use_cache=False
        ).run_many([instrumented_experiment], scale="quick")
        assert summary.executed_tasks == 3, "no-cache run must re-execute"
        assert len(_CALLS) == 3
        assert not summary.reports[0].cached
        entries_after = sorted(p.name for p in tmp_path.rglob("*.json"))
        assert entries_after == entries_before, "no-cache must not write"

    def test_corrupt_entry_is_a_miss_not_a_crash(
        self, instrumented_experiment, tmp_path
    ):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run(instrumented_experiment, scale="quick")
        (entry,) = list(tmp_path.rglob("*.json"))
        for corruption in ("", "{not json", '{"key": "wrong"}', '{"result": 5}'):
            entry.write_text(corruption, encoding="utf-8")
            _CALLS.clear()
            summary = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_many(
                [instrumented_experiment], scale="quick"
            )
            assert summary.executed_tasks == 3
            assert not summary.reports[0].cached

    def test_corrupt_entry_logs_one_warning(
        self, instrumented_experiment, tmp_path, caplog
    ):
        import logging

        ExperimentRunner(jobs=1, cache_dir=tmp_path).run(
            instrumented_experiment, scale="quick"
        )
        (entry,) = list(tmp_path.rglob("*.json"))
        entry.write_text('{"key": "wrong shape"}', encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            ExperimentRunner(jobs=1, cache_dir=tmp_path).run(
                instrumented_experiment, scale="quick"
            )
        corrupt_warnings = [
            record
            for record in caplog.records
            if "corrupt" in record.message and "treating as a miss" in record.message
        ]
        assert len(corrupt_warnings) == 1

    def test_corrupt_cache_entry_degrades_to_logged_rerun(
        self, instrumented_experiment, tmp_path, caplog
    ):
        import logging

        first = ExperimentRunner(jobs=2, cache_dir=tmp_path).run_many(
            [instrumented_experiment], scale="quick"
        )
        (entry,) = list(tmp_path.rglob("*.json"))
        entry.write_text("{truncated garbage", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            second = ExperimentRunner(jobs=2, cache_dir=tmp_path).run_many(
                [instrumented_experiment], scale="quick"
            )
        assert second.executed_tasks == 3, (
            "a corrupt entry must be a rerun, not a crash or a stale hit"
        )
        assert json.dumps(second.reports[0].result.to_dict()) == json.dumps(
            first.reports[0].result.to_dict()
        )
        assert any("corrupt" in record.message for record in caplog.records)
        # The rerun rewrites the entry, so the next run is a clean hit.
        third = ExperimentRunner(jobs=2, cache_dir=tmp_path).run_many(
            [instrumented_experiment], scale="quick"
        )
        assert third.executed_tasks == 0
        assert third.reports[0].cached

    def test_missing_entry_is_a_silent_miss(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert ResultCache(tmp_path).get("deadbeef") is None
        assert not caplog.records, "a plain miss must not warn"

    def test_version_bump_invalidates(
        self, instrumented_experiment, tmp_path, monkeypatch
    ):
        ExperimentRunner(jobs=1, cache_dir=tmp_path).run(
            instrumented_experiment, scale="quick"
        )
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        _CALLS.clear()
        summary = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_many(
            [instrumented_experiment], scale="quick"
        )
        assert summary.executed_tasks == 3, "new version must not hit old cache"

    def test_cached_entry_round_trips_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = ExperimentResult(
            exp_id="x",
            title="T",
            headers=("a", "b"),
            rows=(("1", 2), ("3", 4)),
            paper={"k": 1.0},
            measured={"k": 0.9},
            notes=("n",),
        )
        cache.put("deadbeef", result, "quick")
        loaded = cache.get("deadbeef")
        assert loaded == result
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_wrong_key_in_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = ExperimentResult(
            exp_id="x", title="T", headers=("a",), rows=(("1",),),
            paper={}, measured={},
        )
        path = cache.put("aaaa", result, "quick")
        moved = path.with_name("bbbb.json")
        path.rename(moved)
        assert cache.get("bbbb") is None

    def test_runner_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(jobs=0)

    def test_real_experiment_cached_rerun_is_zero_tasks(self, tmp_path):
        ids = ["fig5_bandwidth_3g", "fig7_missrate_3g", "sec3_model"]
        first = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_many(
            ids, scale="quick"
        )
        # The two figures share the 3-Gigabit sweep: 4 unique cells.  The
        # Sec. III model reuses its (1 MiB, 48 servers) cell and adds only
        # its 16-server cell: 5 tasks in all.
        assert first.executed_tasks == 5
        second = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_many(
            ids, scale="quick"
        )
        assert second.executed_tasks == 0
        assert all(report.cached for report in second.reports)
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]


# -- unusable cache directory -------------------------------------------


class TestUnusableCacheDir:
    def test_file_in_place_of_the_directory_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match=str(blocker)):
            ResultCache(blocker)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig5_bandwidth_3g", "--scale", "quick"],
            ["sweep", "sweep_homogeneous"],
            ["summary"],
        ],
        ids=["run", "sweep", "summary"],
    )
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cli_exits_2_before_running_anything(
        self, argv, via, tmp_path, monkeypatch, capsys
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        if via == "flag":
            argv = [*argv, "--cache-dir", str(blocker)]
        else:
            monkeypatch.setenv(CACHE_DIR_ENV, str(blocker))
        assert main([*argv, "--progress"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("sais-repro: ")
        assert str(blocker) in captured.err
        assert "Traceback" not in captured.err
