"""Parallel experiment execution with deterministic result caching.

The evaluation's grid points are embarrassingly parallel and fully
deterministic (seeded DES, process-stable hashing), so this package
scales ``sais-repro run all`` with cores:

* :class:`ExperimentRunner` — fans grid points (and whole experiments)
  out over a process pool, deduplicates shared points, reassembles rows
  in grid order;
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  SHA-256 of (exp_id, scale, resolved config dataclasses, version),
  written atomically (tmp file + ``os.replace``) so concurrent runners
  and serve daemons can share one cache directory;
* :class:`SupervisedWorkerPool` — warm workers with heartbeats,
  crash/hang detection, automatic restart and per-task retry/backoff;
  the execution layer under the :mod:`repro.serve` daemon.  The plain
  ``ExperimentRunner`` pool also survives a worker death: the pool is
  rebuilt, the affected points retried once, and only a point that
  keeps killing workers becomes a per-point error report.

Generated-scenario sweeps (:mod:`repro.scenarios`, the ``sweep``
experiment family) add no machinery here: a sweep is just another grid
experiment whose points are A/B comparisons over generated configs, so
planning, cross-experiment dedup, ``--jobs`` fan-out and the
content-addressed cache all apply unchanged — the generator's seed covers
which scenarios exist, the config's own seed covers the simulation
(DESIGN.md §11).

Quickstart::

    from repro.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=4)
    summary = runner.run_many(["fig5_bandwidth_3g", "fig7_missrate_3g"],
                              scale="quick")
    for report in summary.reports:
        print(report.exp_id, "cached" if report.cached else "ran")
"""

from .cache import ResultCache, config_digest, default_cache_dir, result_key
from .runner import (
    ExperimentPlan,
    ExperimentRunner,
    RunReport,
    RunSummary,
    assemble_plan,
    plan_experiment,
    task_kind,
)
from .supervised import SupervisedWorkerPool, TaskOutcome

__all__ = [
    "ExperimentRunner",
    "ExperimentPlan",
    "ResultCache",
    "RunReport",
    "RunSummary",
    "SupervisedWorkerPool",
    "TaskOutcome",
    "assemble_plan",
    "config_digest",
    "default_cache_dir",
    "plan_experiment",
    "result_key",
    "task_kind",
]
