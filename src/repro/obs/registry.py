"""A unified metrics registry over the simulator's scattered instruments.

The stack grew three telemetry dialects: DES :class:`~repro.des.monitor`
instruments (``Counter``/``TimeWeighted``) on the hardware models, the
``sar`` utilization sampler, and ad-hoc dataclasses
(:class:`~repro.metrics.collectors.ResilienceMetrics`).  The
:class:`MetricsRegistry` gives them one namespace: components *register*
their instruments under labeled names at build time (registration is a
dict insert — no per-event cost), and a :meth:`MetricsRegistry.snapshot`
reads every source lazily at the moment it is taken.

Names are dotted paths (``client0.core2.busy_time``); labels are
key/value pairs carried on the sample for grouping (``{"client": 0,
"core": 2}``).  Snapshots are plain tuples of :class:`MetricSample`, so
they serialize and diff trivially; perfbench reads its exact counts
(``des.events_processed`` and the rest) one name at a time with
:meth:`MetricsRegistry.read`.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..des.monitor import Counter, TimeWeighted

__all__ = ["MetricSample", "MetricsRegistry"]


@dataclasses.dataclass(frozen=True, slots=True)
class MetricSample:
    """One named reading taken at snapshot time."""

    name: str
    value: float
    kind: str  # "counter" | "gauge" | "probe"
    labels: tuple[tuple[str, t.Any], ...] = ()

    def label(self, key: str) -> t.Any:
        """The value of one label, or None."""
        for k, v in self.labels:
            if k == key:
                return v
        return None


def _freeze_labels(
    labels: dict[str, t.Any] | None,
) -> tuple[tuple[str, t.Any], ...]:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Named, labeled access to every instrument in one cluster."""

    def __init__(self) -> None:
        # name -> (kind, read-callable, labels)
        self._sources: dict[
            str,
            tuple[str, t.Callable[[], float], tuple[tuple[str, t.Any], ...]],
        ] = {}

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._sources))

    # -- registration ------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        read: t.Callable[[], float],
        labels: dict[str, t.Any] | None,
    ) -> None:
        if name in self._sources:
            raise SimulationError(f"metric {name!r} registered twice")
        self._sources[name] = (kind, read, _freeze_labels(labels))

    def register_counter(
        self,
        name: str,
        counter: "Counter",
        labels: dict[str, t.Any] | None = None,
    ) -> None:
        """Expose a DES monitor :class:`Counter` under ``name``."""
        self._register(name, "counter", lambda: counter.value, labels)

    def register_time_weighted(
        self,
        name: str,
        signal: "TimeWeighted",
        labels: dict[str, t.Any] | None = None,
    ) -> None:
        """Expose a :class:`TimeWeighted` signal's running time-average."""
        self._register(name, "gauge", signal.mean, labels)

    def register_probe(
        self,
        name: str,
        read: t.Callable[[], float],
        kind: str = "gauge",
        labels: dict[str, t.Any] | None = None,
    ) -> None:
        """Expose an arbitrary zero-arg callable (read at snapshot time)."""
        self._register(name, kind, read, labels)

    def ingest_dataclass(
        self,
        prefix: str,
        record: t.Any,
        labels: dict[str, t.Any] | None = None,
    ) -> int:
        """Register every numeric field of a (frozen) dataclass instance.

        Values are captured at ingest time — right for post-run records
        like ``ResilienceMetrics``.  Returns how many fields registered.
        """
        if not dataclasses.is_dataclass(record):
            raise SimulationError(
                f"ingest_dataclass needs a dataclass, got {type(record).__name__}"
            )
        registered = 0
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            frozen = float(value)
            self._register(
                f"{prefix}.{field.name}",
                "counter" if isinstance(value, int) else "gauge",
                lambda v=frozen: v,
                labels,
            )
            registered += 1
        return registered

    # -- reading -----------------------------------------------------------

    def read(self, name: str) -> float:
        """Current value of one metric."""
        try:
            _, read, _ = self._sources[name]
        except KeyError:
            raise SimulationError(f"unknown metric {name!r}") from None
        return read()

    def snapshot(self, prefix: str = "") -> tuple[MetricSample, ...]:
        """Read every (matching) source now, in sorted-name order."""
        samples = []
        for name in sorted(self._sources):
            if prefix and not name.startswith(prefix):
                continue
            kind, read, labels = self._sources[name]
            samples.append(
                MetricSample(name=name, value=read(), kind=kind, labels=labels)
            )
        return tuple(samples)

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """Snapshot flattened to ``{name: value}`` (JSON-friendly)."""
        return {s.name: s.value for s in self.snapshot(prefix)}
