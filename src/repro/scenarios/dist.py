"""The declarative distribution language of scenario specs.

A spec field that varies across generated scenarios is written as a
small JSON value describing a distribution instead of a scalar:

=====================================  ==================================
``42``, ``"512K"``, ``null``            constant (:class:`Const`)
``{"choice": [...]}``                   uniform pick from a finite set
``{"choice": [...], "weights": [...]}`` weighted pick (:class:`Choice`)
``{"uniform": [lo, hi]}``               real uniform on [lo, hi)
``{"uniform_int": [lo, hi]}``           integer uniform, inclusive
=====================================  ==================================

Every distribution maps one deterministic unit draw ``u`` in [0, 1)
(from :func:`repro.rng.hash_unit`, keyed by ``(seed, scenario index,
knob path)``) to a value — there is no hidden stream state, which is
what makes generation byte-reproducible from ``(spec, seed)`` in any
process, in any order (DESIGN.md §11).

Size-valued fields accept the paper's suffix labels (``"512K"``,
``"2M"``) anywhere a number is expected; the *atom* parser passed to
:func:`parse_dist` normalizes them (see :func:`repro.units.parse_size`).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import ConfigError
from ..units import sum_left

__all__ = [
    "Distribution",
    "Const",
    "Choice",
    "Uniform",
    "UniformInt",
    "parse_dist",
]

#: JSON scalar → spec value converter (e.g. ``parse_size`` for sizes).
Atom = t.Callable[[t.Any], t.Any]

_DIST_KEYS = ("choice", "uniform", "uniform_int")


class Distribution:
    """Base of all spec distributions: one unit draw in, one value out."""

    def sample(self, u: float) -> t.Any:
        """The value at unit draw ``u`` (deterministic, no state)."""
        raise NotImplementedError

    def support(self) -> tuple[t.Any, ...] | None:
        """The finite set of possible values, or ``None`` if continuous."""
        return None

    def bounds(self) -> tuple[float, float] | None:
        """(lo, hi) for numeric distributions, ``None`` otherwise."""
        support = self.support()
        if support is None:
            return None
        numeric = [v for v in support if isinstance(v, (int, float))]
        if len(numeric) != len(support) or not numeric:
            return None
        return (min(numeric), max(numeric))


@dataclasses.dataclass(frozen=True)
class Const(Distribution):
    """A field that does not vary: every scenario gets ``value``."""

    value: t.Any

    def sample(self, u: float) -> t.Any:
        return self.value

    def support(self) -> tuple[t.Any, ...]:
        return (self.value,)


@dataclasses.dataclass(frozen=True)
class Choice(Distribution):
    """Weighted pick from a finite set of values."""

    values: tuple[t.Any, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("choice distribution needs at least one value")
        if len(self.weights) != len(self.values):
            raise ConfigError(
                f"choice weights ({len(self.weights)}) must match values "
                f"({len(self.values)})"
            )
        for weight in self.weights:
            if not isinstance(weight, (int, float)) or weight <= 0:
                raise ConfigError(
                    f"choice weights must be positive numbers, got {weight!r}"
                )

    def sample(self, u: float) -> t.Any:
        total = sum_left(self.weights)
        acc = 0.0
        for value, weight in zip(self.values, self.weights):
            acc += weight / total
            if u < acc:
                return value
        return self.values[-1]

    def support(self) -> tuple[t.Any, ...]:
        return self.values


@dataclasses.dataclass(frozen=True)
class Uniform(Distribution):
    """Real uniform on ``[lo, hi)``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ConfigError(
                f"uniform needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    def sample(self, u: float) -> float:
        return self.lo + u * (self.hi - self.lo)

    def bounds(self) -> tuple[float, float]:
        return (self.lo, self.hi)


@dataclasses.dataclass(frozen=True)
class UniformInt(Distribution):
    """Integer uniform on the inclusive range ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ConfigError(
                f"uniform_int needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    def sample(self, u: float) -> int:
        return min(self.hi, self.lo + int(u * (self.hi - self.lo + 1)))

    def bounds(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


def _atomize(field: str, raw: t.Any, atom: Atom) -> t.Any:
    try:
        return atom(raw)
    except (TypeError, ValueError) as exc:  # a ConfigError included
        raise ConfigError(f"{field}: {exc}") from exc


def _pair(field: str, kind: str, raw: t.Any, atom: Atom) -> tuple[t.Any, t.Any]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(
            f"{field}: {kind} needs a [lo, hi] pair, got {raw!r}"
        )
    return _atomize(field, raw[0], atom), _atomize(field, raw[1], atom)


def parse_dist(field: str, raw: t.Any, atom: Atom = lambda v: v) -> Distribution:
    """Parse one spec field's JSON value into a :class:`Distribution`.

    ``atom`` converts every scalar the distribution can produce (size
    labels to bytes, and so on); ``field`` names the spec key in error
    messages.  Anything malformed raises a uniform
    :class:`~repro.errors.ConfigError`.
    """
    if isinstance(raw, Distribution):
        return raw
    if isinstance(raw, dict):
        keys = [key for key in _DIST_KEYS if key in raw]
        if len(keys) != 1:
            raise ConfigError(
                f"{field}: a distribution object needs exactly one of "
                f"{'/'.join(_DIST_KEYS)}, got {sorted(raw)}"
            )
        kind = keys[0]
        extras = sorted(set(raw) - {kind, "weights"})
        if extras:
            raise ConfigError(
                f"{field}: unknown distribution key(s): {', '.join(extras)}"
            )
        if "weights" in raw and kind != "choice":
            raise ConfigError(f"{field}: weights only apply to choice")
        if kind == "choice":
            values = raw["choice"]
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"{field}: choice needs a non-empty list, got {values!r}"
                )
            parsed = tuple(_atomize(field, value, atom) for value in values)
            weights = raw.get("weights", [1.0] * len(parsed))
            if not isinstance(weights, (list, tuple)):
                raise ConfigError(
                    f"{field}: weights must be a list, got {weights!r}"
                )
            try:
                return Choice(values=parsed, weights=tuple(weights))
            except ConfigError as exc:
                raise ConfigError(f"{field}: {exc}") from exc
        lo, hi = _pair(field, kind, raw[kind], atom)
        try:
            if kind == "uniform":
                return Uniform(lo=float(lo), hi=float(hi))
            if lo != int(lo) or hi != int(hi):
                raise ConfigError(
                    f"uniform_int bounds must be integers, got [{lo}, {hi}]"
                )
            return UniformInt(lo=int(lo), hi=int(hi))
        except ConfigError as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    return Const(value=_atomize(field, raw, atom))
