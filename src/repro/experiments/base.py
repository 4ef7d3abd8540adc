"""Experiment registry, the common result shape, and grid decomposition.

Every experiment registers through :func:`register_grid_experiment` as a
:class:`GridExperiment`: a pure, cheap ``grid(scale) -> [spec, ...]`` of
pickleable point specs, a deterministic ``run_point(spec) -> row`` that
does the heavy simulation for one grid cell, and an
``assemble(scale, specs, rows)`` that folds the rows back into an
:class:`ExperimentResult`.

:class:`repro.runner.ExperimentRunner` is the one way an experiment
runs: it plans the points, runs them in-process or over its worker pool,
and assembles the result.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import ConfigError
from ..metrics.report import render_table

__all__ = [
    "ExperimentResult",
    "GridExperiment",
    "register_grid_experiment",
    "get_grid_experiment",
    "has_grid_experiment",
    "all_experiment_ids",
    "resolve_scale",
    "SCALES",
]

#: Run-length presets.  Simulated bandwidths are steady-state rates, so
#: scaling the file sizes down changes noise, not shape (verified by
#: tests/cluster/test_run_length_invariance.py).
SCALES = ("quick", "default", "full")

_REGISTRY: dict[str, "GridExperiment"] = {}


def resolve_scale(scale: str) -> str:
    """Validate a scale preset name, returning it unchanged.

    Every experiment indexes ``SCALES``-keyed dicts; routing the lookup
    key through this helper turns an unknown scale into a uniform
    :class:`~repro.errors.ConfigError` instead of a bare ``KeyError``.
    """
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """What every experiment returns: a table plus headline comparisons."""

    exp_id: str
    title: str
    #: Column names of ``rows``.
    headers: tuple[str, ...]
    #: The regenerated data series (the figure's points).
    rows: tuple[tuple[t.Any, ...], ...]
    #: Paper-reported headline values, keyed by a short name.
    paper: dict[str, float]
    #: Our measured equivalents, same keys.
    measured: dict[str, float]
    #: Free-form caveats (where our shape deviates and why).
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, t.Any]:
        """JSON-serializable form (CLI ``--json``, downstream tooling)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "paper": dict(self.paper),
            "measured": dict(self.measured),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, t.Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (used by the on-disk result cache).

        Raises ``KeyError``/``TypeError`` on malformed payloads; callers
        that cannot trust the payload (the cache) treat those as misses.
        """
        return cls(
            exp_id=payload["exp_id"],
            title=payload["title"],
            headers=tuple(payload["headers"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            paper=dict(payload["paper"]),
            measured=dict(payload["measured"]),
            notes=tuple(payload["notes"]),
        )

    def render(self) -> str:
        """Human-readable table + headline comparison."""
        lines = [render_table(self.headers, self.rows, title=self.title)]
        if self.paper:
            lines.append("")
            lines.append("headline (paper vs measured):")
            for key in self.paper:
                measured = self.measured.get(key, float("nan"))
                lines.append(f"  {key}: paper={self.paper[key]:g}  measured={measured:g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class GridExperiment:
    """The decomposed (parallelizable) form of one experiment.

    ``grid`` must be *pure and cheap*: it only builds pickleable point
    specs (typically frozen config dataclasses), never runs simulations.
    ``run_point`` carries the whole cost of one grid cell and must be
    deterministic — same spec, same bits, in any process (the property
    ``tests/experiments/test_determinism.py`` asserts).
    """

    exp_id: str
    grid: t.Callable[[str], t.Sequence[t.Any]]
    run_point: t.Callable[[t.Any], t.Any]
    assemble: t.Callable[[str, t.Sequence[t.Any], t.Sequence[t.Any]], ExperimentResult]

    def keys(self, specs: t.Sequence[t.Any]) -> list[str]:
        """The one name of each point: its spec's digest and its run function.

        A point is ``run_point(spec)``, so experiments that run the same
        spec through the same module-level function share the point, and
        the runner executes it once per invocation (the Fig. 5–11 family
        and the experiments built on one Fig. 5 cell).  The function is
        named by module and qualified name, never by identity, so a
        ``functools.wraps`` wrapper keeps its points shared.  A local
        function or lambda (``<`` in its qualified name) may close over
        state its name does not show, so its points stay this
        experiment's own.  The digest comes first: progress and
        ``FAILED`` lines print a key's first 24 characters.
        """
        from ..runner.cache import config_digest

        run = self.run_point
        scope = (
            self.exp_id
            if "<" in run.__qualname__
            else f"{run.__module__}.{run.__qualname__}"
        )
        return [f"{config_digest(spec)}:{scope}" for spec in specs]


def register_grid_experiment(
    exp_id: str,
    *,
    grid: t.Callable[[str], t.Sequence[t.Any]],
    run_point: t.Callable[[t.Any], t.Any],
    assemble: t.Callable[
        [str, t.Sequence[t.Any], t.Sequence[t.Any]], ExperimentResult
    ],
) -> None:
    """Register an experiment under ``exp_id``."""
    if exp_id in _REGISTRY:
        raise ConfigError(f"experiment {exp_id!r} already registered")
    _REGISTRY[exp_id] = GridExperiment(
        exp_id=exp_id, grid=grid, run_point=run_point, assemble=assemble
    )


def get_grid_experiment(exp_id: str) -> GridExperiment:
    """Look an experiment up by id."""
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {exp_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


def has_grid_experiment(exp_id: str) -> bool:
    """Whether an experiment is registered under ``exp_id``."""
    return exp_id in _REGISTRY


def unregister_experiment(exp_id: str) -> None:
    """Remove an experiment from the registry (test isolation hook)."""
    _REGISTRY.pop(exp_id, None)


def all_experiment_ids() -> list[str]:
    """Sorted ids of every registered experiment."""
    return sorted(_REGISTRY)
