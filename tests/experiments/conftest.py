"""Fixtures for the experiment-layer tests.

Every test in this directory gets an isolated result-cache directory so
CLI/runner invocations never read or write the user's real cache
(``~/.cache/sais-repro``) and never observe another test's entries.

``quick_run`` runs every registered experiment at quick scale once per
session, through the same :class:`~repro.runner.ExperimentRunner` the
CLI uses; the goldens, the result-shape tests and the CLI summary read
its results or its cache instead of simulating again.
"""

from __future__ import annotations

import json
import pathlib
import typing as t

import pytest

from repro.experiments import ExperimentResult, all_experiment_ids
from repro.runner import ExperimentRunner
from repro.runner.cache import CACHE_DIR_ENV

GOLDENS_DIR = pathlib.Path(__file__).parent / "goldens"


def golden_path(exp_id: str, scale: str) -> pathlib.Path:
    """Where the committed ``to_dict()`` of ``exp_id`` at ``scale`` lives."""
    return GOLDENS_DIR / f"{exp_id}.{scale}.json"


def encode_golden(payload: dict[str, t.Any]) -> str:
    """The exact text of a golden file holding ``payload``."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default cache at a per-test temporary directory."""
    cache_dir = tmp_path / "sais-cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
    return cache_dir


class QuickRun(t.NamedTuple):
    """Every experiment's quick-scale result, and the cache holding them."""

    results: dict[str, ExperimentResult]
    cache_dir: pathlib.Path


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory) -> QuickRun:
    """Run every experiment at quick scale in one ``run_many`` call."""
    cache_dir = tmp_path_factory.mktemp("quick-run") / "cache"
    summary = ExperimentRunner(cache_dir=cache_dir).run_many(
        all_experiment_ids(), scale="quick"
    )
    assert not summary.failed
    return QuickRun(
        results={report.exp_id: report.result for report in summary.reports},
        cache_dir=cache_dir,
    )
