"""The parallel experiment runner.

``ExperimentRunner`` fans experiment grid points out over a
:class:`~repro.runner.supervised.SupervisedWorkerPool` (``jobs``
workers), reuses a content-addressed on-disk
:class:`~repro.runner.cache.ResultCache`, and reassembles rows in
deterministic grid order — so ``--jobs 4`` output is byte-identical to
``--jobs 1`` (asserted by ``tests/experiments/test_determinism.py``).

Work units are deduplicated by :meth:`GridExperiment.keys` before
submission: the six Fig. 5-11 experiments share one underlying sweep, so
``run all`` executes each shared cell once per invocation no matter how
many experiments consume it.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import ConfigError, StripRetryExhaustedError
from ..experiments.base import (
    ExperimentResult,
    get_grid_experiment,
    resolve_scale,
)
from .cache import ResultCache, result_key
from .pool import run_point_task

__all__ = [
    "ExperimentRunner",
    "ExperimentPlan",
    "RunReport",
    "RunSummary",
    "plan_experiment",
    "assemble_plan",
]

ProgressFn = t.Callable[[str], None]


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Provenance of one experiment's result within a runner invocation."""

    exp_id: str
    result: ExperimentResult | None
    #: Served from the on-disk cache without running anything.
    cached: bool
    #: Grid points this experiment consumed.
    n_points: int
    #: Points this experiment was first to schedule (the rest were shared
    #: with earlier experiments in the same invocation).
    n_scheduled: int
    #: Why ``result`` is None: a point whose pool worker died or hung on
    #: every attempt, or that gave up on a strip
    #: (:class:`~repro.errors.StripRetryExhaustedError`); the rest of the
    #: invocation still completed.
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """Everything one ``run_many`` call did."""

    scale: str
    jobs: int
    reports: tuple[RunReport, ...]
    #: Unique simulation tasks actually executed (0 = fully cached).
    executed_tasks: int

    @property
    def results(self) -> list[ExperimentResult]:
        """Successful results (failed reports carry ``error`` instead)."""
        return [
            report.result
            for report in self.reports
            if report.result is not None
        ]

    @property
    def failed(self) -> list[RunReport]:
        return [report for report in self.reports if report.error is not None]


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's share of the work: keys into the task table."""

    exp_id: str
    key: str
    specs: tuple[t.Any, ...]
    task_keys: tuple[str, ...]
    n_scheduled: int


def plan_experiment(
    exp_id: str,
    scale: str,
    tasks: dict[str, tuple[str, t.Any]],
) -> ExperimentPlan:
    """Decompose one experiment into the shared task table.

    ``tasks`` maps task keys to ``(exp_id, spec)`` pairs and is
    *mutated*: keys this experiment is first to need are inserted, keys
    an earlier plan already scheduled are shared.  An unknown ``exp_id``
    raises :class:`~repro.errors.ConfigError`.
    """
    experiment = get_grid_experiment(exp_id)
    specs = tuple(experiment.grid(scale))
    task_keys = tuple(experiment.keys(specs))
    key = result_key(exp_id, scale, task_keys)
    scheduled = 0
    for task_key, spec in zip(task_keys, specs):
        if task_key not in tasks:
            tasks[task_key] = (exp_id, spec)
            scheduled += 1
    return ExperimentPlan(
        exp_id=exp_id,
        key=key,
        specs=specs,
        task_keys=task_keys,
        n_scheduled=scheduled,
    )


def assemble_plan(
    plan: ExperimentPlan, scale: str, rows_by_key: dict[str, t.Any]
) -> ExperimentResult:
    """Fold executed task rows back into one ``ExperimentResult``."""
    experiment = get_grid_experiment(plan.exp_id)
    rows = [rows_by_key[key] for key in plan.task_keys]
    return experiment.assemble(scale, plan.specs, rows)


class ExperimentRunner:
    """Run experiments over ``jobs`` workers with optional result cache.

    ``jobs=1`` runs everything in-process (no pool, no pickling); any
    larger value starts a
    :class:`~repro.runner.supervised.SupervisedWorkerPool`.
    ``use_cache=False`` bypasses cache reads *and* writes.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: t.Any = None,
        use_cache: bool = True,
        progress: ProgressFn | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if use_cache else None
        )
        self._progress = progress

    # -- public API ----------------------------------------------------

    def run(self, exp_id: str, scale: str = "default") -> ExperimentResult:
        """Run one experiment; cache- and pool-aware."""
        return self.run_many([exp_id], scale=scale).reports[0].result

    def run_many(
        self, exp_ids: t.Sequence[str], scale: str = "default"
    ) -> RunSummary:
        """Run several experiments, sharing and deduplicating their points."""
        scale = resolve_scale(scale)
        cached_results: dict[str, ExperimentResult] = {}
        plans: list[ExperimentPlan] = []
        # Insertion-ordered task table: point key -> (exp_id, spec).
        tasks: dict[str, tuple[str, t.Any]] = {}

        for exp_id in exp_ids:
            plan = plan_experiment(exp_id, scale, tasks)
            plans.append(plan)
            if self.cache is not None:
                hit = self.cache.get(plan.key)
                if hit is not None and hit.exp_id == exp_id:
                    cached_results[exp_id] = hit
                    # Un-schedule points no other pending experiment needs.
                    self._release_points(plan, plans, cached_results, tasks)
            self._emit(
                f"plan {exp_id}: "
                + (
                    "cached"
                    if exp_id in cached_results
                    else f"{len(plan.task_keys)} task(s), "
                    f"{plan.n_scheduled} newly scheduled"
                )
            )

        pending = {
            key: task
            for key, task in tasks.items()
            if self._key_needed(key, plans, cached_results)
        }
        rows_by_key, point_errors = self._execute(pending)

        reports = []
        for plan in plans:
            if plan.exp_id in cached_results:
                reports.append(
                    RunReport(
                        exp_id=plan.exp_id,
                        result=cached_results[plan.exp_id],
                        cached=True,
                        n_points=len(plan.task_keys),
                        n_scheduled=0,
                    )
                )
                continue
            failed = [key for key in plan.task_keys if key in point_errors]
            if failed:
                detail = "; ".join(
                    f"{key[:24]}: {point_errors[key]}" for key in failed
                )
                self._emit(f"failed {plan.exp_id}: {detail}")
                reports.append(
                    RunReport(
                        exp_id=plan.exp_id,
                        result=None,
                        cached=False,
                        n_points=len(plan.task_keys),
                        n_scheduled=plan.n_scheduled,
                        error=(
                            f"{len(failed)} of {len(plan.task_keys)} "
                            f"point(s) failed: {detail}"
                        ),
                    )
                )
                continue
            result = assemble_plan(plan, scale, rows_by_key)
            if self.cache is not None:
                self.cache.put(plan.key, result, scale)
            reports.append(
                RunReport(
                    exp_id=plan.exp_id,
                    result=result,
                    cached=False,
                    n_points=len(plan.task_keys),
                    n_scheduled=plan.n_scheduled,
                )
            )
            self._emit(f"done {plan.exp_id}")
        return RunSummary(
            scale=scale,
            jobs=self.jobs,
            reports=tuple(reports),
            executed_tasks=len(rows_by_key),
        )

    # -- planning ------------------------------------------------------

    @staticmethod
    def _key_needed(
        key: str,
        plans: t.Sequence[ExperimentPlan],
        cached_results: dict[str, ExperimentResult],
    ) -> bool:
        return any(
            key in plan.task_keys
            for plan in plans
            if plan.exp_id not in cached_results
        )

    def _release_points(
        self,
        plan: ExperimentPlan,
        plans: t.Sequence[ExperimentPlan],
        cached_results: dict[str, ExperimentResult],
        tasks: dict[str, tuple[str, t.Any]],
    ) -> None:
        for key in plan.task_keys:
            if not self._key_needed(key, plans, cached_results):
                tasks.pop(key, None)

    # -- execution -----------------------------------------------------

    def _execute(
        self, tasks: dict[str, tuple[str, t.Any]]
    ) -> tuple[dict[str, t.Any], dict[str, str]]:
        """Run the task table; returns ``(rows_by_key, errors_by_key)``.

        A point that gives up on a strip (its fault plan outlasts the
        strip-retry budget: :class:`~repro.errors.StripRetryExhaustedError`)
        is a per-point error under any ``jobs``; it is deterministic, so
        it is not retried.  Under ``jobs > 1`` a grid point whose worker
        dies (SIGKILL, OOM, ``os._exit``) or hangs (SIGSTOP) reruns on a
        replacement worker, and only a point that does so on every
        attempt is a per-point error.  Either way the rest of the grid
        completes.  A point that raises anything else re-raises here.
        """
        if not tasks:
            return {}, {}
        if self.jobs == 1:
            rows: dict[str, t.Any] = {}
            errors: dict[str, str] = {}
            for key, (exp_id, spec) in tasks.items():
                try:
                    rows[key] = run_point_task(exp_id, spec)
                except StripRetryExhaustedError as exc:
                    errors[key] = f"{type(exc).__name__}: {exc}"
            return rows, errors
        # Imported here: loading multiprocessing adds about 1 MiB to the
        # peak RSS of the in-process path above.
        from .supervised import SupervisedWorkerPool

        with SupervisedWorkerPool(
            min(self.jobs, len(tasks)), progress=self._progress
        ) as pool:
            for key, (exp_id, spec) in tasks.items():
                pool.submit(key, exp_id, spec)
            return pool.drain()

    def _emit(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)
