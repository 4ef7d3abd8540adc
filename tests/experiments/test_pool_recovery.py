"""ExperimentRunner survival of dead and hung workers under ``--jobs N``.

A grid point calling ``os._exit`` stands in for OOM kills and
segfaults; one that SIGSTOPs its own process stands in for a wedged
interpreter.  These tests pin the contract of the supervised pool: the
worker is replaced and the point reruns, innocent points complete, only
a point that kills its worker on every attempt becomes a per-point
error report, and a point that raises re-raises as under ``--jobs 1``.
``TestSupervisedWorkerPool`` drives the pool behind the runner directly,
through ``submit`` and ``drain``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.errors import ConfigError
from repro.experiments.base import (
    ExperimentResult,
    register_grid_experiment,
    unregister_experiment,
)
from repro.runner import ExperimentRunner, supervised
from repro.runner.supervised import SupervisedWorkerPool


def _register(exp_id: str, run_point):
    def grid(scale):
        return ("a", "b", "c")

    def assemble(scale, specs, rows):
        return ExperimentResult(
            exp_id=exp_id,
            title=exp_id,
            headers=("x",),
            rows=tuple((row,) for row in rows),
            paper={},
            measured={"rows": float(len(rows))},
        )

    register_grid_experiment(
        exp_id, grid=grid, run_point=run_point, assemble=assemble
    )
    return exp_id


@pytest.fixture
def kill_once_experiment(tmp_path):
    marker = tmp_path / "armed"

    def run_point(spec):
        if spec == "b" and not marker.exists():
            marker.write_text("armed")
            os._exit(21)
        return f"ok-{spec}"

    exp_id = _register("recovery_kill_once", run_point)
    yield exp_id
    unregister_experiment(exp_id)


@pytest.fixture
def sigkill_once_experiment(tmp_path):
    marker = tmp_path / "armed"

    def run_point(spec):
        if spec == "b" and not marker.exists():
            marker.write_text("armed")
            os.kill(os.getpid(), signal.SIGKILL)
        return f"ok-{spec}"

    exp_id = _register("recovery_sigkill_once", run_point)
    yield exp_id
    unregister_experiment(exp_id)


@pytest.fixture
def poison_experiment():
    def run_point(spec):
        if spec == "b":
            os._exit(21)
        return f"ok-{spec}"

    exp_id = _register("recovery_poison", run_point)
    yield exp_id
    unregister_experiment(exp_id)


@pytest.fixture
def stop_once_experiment(tmp_path):
    marker = tmp_path / "armed"

    def run_point(spec):
        if spec == "b" and not marker.exists():
            marker.write_text("armed")
            os.kill(os.getpid(), signal.SIGSTOP)
        return f"ok-{spec}"

    exp_id = _register("recovery_stop_once", run_point)
    yield exp_id
    unregister_experiment(exp_id)


@pytest.fixture
def raising_experiment():
    def run_point(spec):
        if spec == "b":
            raise ConfigError(f"bad spec {spec!r}")
        return f"ok-{spec}"

    exp_id = _register("recovery_raises", run_point)
    yield exp_id
    unregister_experiment(exp_id)


@pytest.fixture
def alarm():
    """Fail a hung test after ``seconds`` instead of hanging the suite."""

    def on_alarm(signum, frame):
        # Kill the workers first, so a pool waiting on them can unwind.
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail("the run hung on a stopped worker")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def healthy_experiment():
    exp_id = _register("recovery_healthy", lambda spec: f"fine-{spec}")
    yield exp_id
    unregister_experiment(exp_id)


@pytest.mark.chaos
class TestPoolRecovery:
    def test_worker_killed_once_recovers_on_rebuilt_pool(
        self, kill_once_experiment, tmp_path
    ):
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
        summary = runner.run_many([kill_once_experiment], scale="quick")
        (report,) = summary.reports
        assert report.error is None
        assert report.result is not None
        assert report.result.rows == (("ok-a",), ("ok-b",), ("ok-c",))
        assert summary.failed == []

    def test_poison_point_becomes_error_row_others_complete(
        self, poison_experiment, healthy_experiment, tmp_path
    ):
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
        summary = runner.run_many(
            [poison_experiment, healthy_experiment], scale="quick"
        )
        by_id = {report.exp_id: report for report in summary.reports}

        poisoned = by_id[poison_experiment]
        assert poisoned.result is None
        assert poisoned.error is not None
        assert "1 of 3 point(s) failed" in poisoned.error

        healthy = by_id[healthy_experiment]
        assert healthy.error is None
        assert healthy.result.rows == (
            ("fine-a",),
            ("fine-b",),
            ("fine-c",),
        )
        assert summary.failed == [poisoned]
        # A failed experiment must not poison the cache either.
        rerun = ExperimentRunner(
            jobs=1, cache_dir=tmp_path / "cache"
        ).run_many([healthy_experiment], scale="quick")
        assert rerun.reports[0].cached

    def test_stopped_worker_is_replaced_and_its_point_reruns(
        self, stop_once_experiment, alarm, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(supervised, "LIVENESS_S", 0.5)
        alarm(30)
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
        summary = runner.run_many([stop_once_experiment], scale="quick")
        (report,) = summary.reports
        assert report.error is None
        assert report.result.rows == (("ok-a",), ("ok-b",), ("ok-c",))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_point_raises_the_same_error(
        self, raising_experiment, jobs, tmp_path
    ):
        runner = ExperimentRunner(jobs=jobs, cache_dir=tmp_path / "cache")
        with pytest.raises(ConfigError, match="^bad spec 'b'$"):
            runner.run_many([raising_experiment], scale="quick")


@pytest.mark.chaos
class TestSupervisedWorkerPool:
    @pytest.mark.tier1
    def test_tasks_complete_and_preserve_keys(self, healthy_experiment):
        lines: list[str] = []
        specs = {f"k{i}": f"s{i}" for i in range(5)}
        with SupervisedWorkerPool(2, progress=lines.append) as pool:
            for key, spec in specs.items():
                pool.submit(key, healthy_experiment, spec)
            rows, errors = pool.drain()
        assert rows == {key: f"fine-{spec}" for key, spec in specs.items()}
        assert errors == {}
        assert len(lines) == 5
        assert not [line for line in lines if "worker pid" in line], (
            "no worker may be replaced on a healthy run"
        )

    def test_sigkilled_worker_is_replaced_and_task_retried(
        self, sigkill_once_experiment, alarm
    ):
        alarm(30)
        lines: list[str] = []
        with SupervisedWorkerPool(2, progress=lines.append) as pool:
            pool.submit("k", sigkill_once_experiment, "b")
            rows, errors = pool.drain()
        assert rows == {"k": "ok-b"}
        assert errors == {}
        assert any(
            "died (exit code -9)" in line and "attempt 2 of 3" in line
            for line in lines
        ), lines

    def test_poison_task_fails_typed_and_pool_keeps_serving(
        self, poison_experiment, alarm
    ):
        alarm(30)
        with SupervisedWorkerPool(2) as pool:
            pool.submit("poison", poison_experiment, "b")
            rows, errors = pool.drain()
            assert rows == {}
            assert list(errors) == ["poison"]
            assert "died or hung on all 3 attempts" in errors["poison"]
            assert "exit code 21" in errors["poison"]
            # The pool must still execute work after a point exhausts
            # its attempts.
            pool.submit("after", poison_experiment, "a")
            rows, errors = pool.drain()
        assert rows == {"after": "ok-a"}
        assert errors == {}
