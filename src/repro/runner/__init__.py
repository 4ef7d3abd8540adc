"""Parallel experiment execution with deterministic result caching.

The evaluation's grid points are embarrassingly parallel and fully
deterministic (seeded DES, process-stable hashing), so this package
scales ``sais-repro run all`` with cores:

* :class:`ExperimentRunner` — fans grid points out over ``jobs``
  workers, deduplicates shared points, reassembles rows in grid order;
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  SHA-256 of (exp_id, scale, resolved config dataclasses, version),
  written atomically (tmp file + ``os.replace``) so concurrent runners
  can share one cache directory;
* :class:`~repro.runner.supervised.SupervisedWorkerPool` — the
  ``--jobs N`` pool (imported only when ``jobs > 1``): warm workers
  with heartbeats.  A worker that dies or hangs is killed and replaced
  and its point reruns; only a point that does so on all three attempts
  becomes a per-point error report, and a point that raises re-raises
  as it would under ``--jobs 1``.

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
)

__all__ = [
    "ExperimentRunner",
    "ExperimentPlan",
    "ResultCache",
    "RunReport",
    "RunSummary",
    "assemble_plan",
    "config_digest",
    "default_cache_dir",
    "plan_experiment",
    "result_key",
]
