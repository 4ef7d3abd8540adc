"""The ambient sweep request: how ``sweep --spec`` reaches the grid.

``sais-repro sweep --spec FILE --samples N --seed S`` runs the
registered ``sweep_custom`` experiment, whose grid consults the ambient
:class:`SweepRequest` the CLI installs here for one command
(:func:`using_sweep`) — the same pattern ``--fault-plan`` uses
(:mod:`repro.faults.ambient`).  The request only needs to exist in
the process that *plans* the grid: ``--jobs`` workers receive fully
resolved :class:`~repro.scenarios.generate.Scenario` point specs and
never re-evaluate the grid, and the content-addressed cache keys hash
those resolved specs, so two different requests can never collide on a
cache entry.

Without an installed request, ``sweep_custom`` falls back to
:data:`DEFAULT_CUSTOM_REQUEST` — a small pinned draw from the built-in
homogeneous spec — which is what its golden snapshot and ``run all``
exercise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as t

from ..errors import ConfigError
from .spec import BUILTIN_SPECS, ScenarioSpec

__all__ = [
    "SweepRequest",
    "DEFAULT_CUSTOM_REQUEST",
    "ambient_sweep",
    "using_sweep",
]


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One ``sweep --spec`` invocation's generator parameters."""

    spec: ScenarioSpec
    samples: int = 8
    seed: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ConfigError(
                f"sweep samples must be a positive int, got {self.samples!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"sweep seed must be an int, got {self.seed!r}")


#: What ``sweep_custom`` runs when no request is installed (goldens,
#: ``run all``): a 2-scenario draw from the homogeneous built-in under a
#: seed distinct from the pinned family's, so its cells never alias
#: ``sweep_homogeneous``'s.
DEFAULT_CUSTOM_REQUEST = SweepRequest(
    spec=BUILTIN_SPECS["homogeneous"], samples=2, seed=11
)

_ambient: SweepRequest | None = None


def ambient_sweep() -> SweepRequest:
    """The installed request, or :data:`DEFAULT_CUSTOM_REQUEST`."""
    return _ambient if _ambient is not None else DEFAULT_CUSTOM_REQUEST


@contextlib.contextmanager
def using_sweep(request: SweepRequest | None) -> t.Iterator[None]:
    """Install ``request`` (or none) for a ``with`` block, then restore."""
    global _ambient
    previous = _ambient
    _ambient = request
    try:
        yield
    finally:
        _ambient = previous
