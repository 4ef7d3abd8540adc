"""Trace analysis: stage durations, lifecycle breakdowns, and A/B span diffs.

The span recorder (:mod:`repro.obs.spans`) captures *what happened*; this
module answers *where the time went*.  A :class:`TraceModel` indexes the
recorder's own :class:`~repro.obs.spans.Span` and
:class:`~repro.obs.spans.FlowEvent` records, those of a live
:class:`SpanRecorder` (float-exact) or the same two types rebuilt from an
exported Chrome trace-event JSON file (microsecond-rounded, but
deterministic), and never mutates them.  It provides three analyses:

* **Stage durations** — :func:`stage_durations` folds every per-strip
  span tree into named stage durations (server service, storage, switch,
  NIC wire, irq, softirq, merge, migration/refetch), the per-strip input
  of the A/B diff.
* **Lifecycle breakdowns** — :func:`strip_stage_times` reads each
  strip's five lifecycle stamps (:data:`LIFECYCLE_STAGES`, the paper's
  eq. (1) split) off its span tree, and :func:`breakdown_from_spans`
  aggregates their stage-to-stage deltas.  The span tree is the only
  record of a strip's lifecycle; ``tests/obs/test_analysis.py`` pins the
  breakdowns exactly to known answers.
* **A/B trace diff** — :func:`diff_traces` aligns two runs of the same
  point by stable ``(client, strip, stage)`` keys and reports per-stage
  deltas, added/removed migration edges, and the top-N regressed spans.
  Output (ASCII via :func:`render_diff`, JSON via
  :meth:`TraceDiff.to_dict`) is deterministic: two invocations on the
  same inputs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as t

from ..errors import ConfigError, SimulationError, read_json
from ..units import sum_left
from .spans import FlowEvent, Span, SpanRecorder, Track, client_pid

__all__ = [
    "STAGE_NAMES",
    "TraceModel",
    "model_from_recorder",
    "model_from_events",
    "load_trace",
    "stage_durations",
    "LIFECYCLE_STAGES",
    "StageDelta",
    "LatencyBreakdown",
    "strip_stage_times",
    "breakdown_from_records",
    "breakdown_from_spans",
    "StageDiff",
    "SpanRegression",
    "TraceDiff",
    "diff_traces",
    "render_diff",
]

#: Span names that fold into named stage durations, in pipeline order.
#: ``serve``/``storage`` live on the server, ``switch`` on the fabric,
#: ``wire``/``irq``/``softirq``/``merge`` on the client, and
#: ``migration``/``memory_fetch`` on the interconnect.
STAGE_NAMES = (
    "serve",
    "storage",
    "switch",
    "wire",
    "irq",
    "softirq",
    "merge",
    "migration",
    "memory_fetch",
)

#: Trace-event microseconds -> model seconds.
_US = 1e6


class TraceModel:
    """An indexed view over one run's spans and flows.

    An open span (``end`` None) ends at its start.
    """

    def __init__(
        self,
        spans: t.Iterable[Span],
        flows: t.Iterable[FlowEvent],
        meta: t.Mapping[str, t.Any] | None = None,
    ) -> None:
        self.spans: tuple[Span, ...] = tuple(
            sorted(spans, key=lambda s: s.sid)
        )
        self.flows: tuple[FlowEvent, ...] = tuple(
            sorted(flows, key=lambda f: f.fid)
        )
        #: Run-level metadata (policy, experiment, point, scale) when the
        #: producer recorded it; empty for bare recorders.
        self.meta: dict[str, t.Any] = dict(meta or {})
        self._by_sid: dict[int, Span] = {s.sid: s for s in self.spans}
        # Strip attribution: walk parents to the nearest span named
        # "strip"; its pid encodes the owning client (client_pid) and its
        # args carry the strip id.
        self._strip_of: dict[int, tuple[int, int] | None] = {}
        self.strips: dict[tuple[int, int], list[Span]] = {}
        self.strip_roots: dict[tuple[int, int], Span] = {}
        for span in self.spans:
            key = self._resolve_strip(span)
            if key is None:
                continue
            self.strips.setdefault(key, []).append(span)
            if span.name == "strip":
                self.strip_roots[key] = span

    def _resolve_strip(self, span: Span) -> tuple[int, int] | None:
        cached = self._strip_of.get(span.sid, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        key: tuple[int, int] | None = None
        if span.name == "strip":
            strip_id = (span.args or {}).get("strip")
            if isinstance(strip_id, int):
                key = (span.track.pid - client_pid(0), strip_id)
        elif span.parent is not None:
            parent = self._by_sid.get(span.parent)
            if parent is not None:
                key = self._resolve_strip(parent)
        self._strip_of[span.sid] = key
        return key

    def strip_of(self, sid: int) -> tuple[int, int] | None:
        """The ``(client, strip)`` a span belongs to, or None."""
        span = self._by_sid.get(sid)
        return self._resolve_strip(span) if span is not None else None

    @property
    def label(self) -> str:
        """Display label for diffs: the recorded policy, else a dash."""
        return str(self.meta.get("policy") or "-")

    def migration_edges(self) -> list[tuple[int, int] | None]:
        """One entry per closed migration flow: its strip key (or None).

        Source-aware runs return ``[]`` — the absence of migration edges
        *is* the paper's mechanism, and the A/B diff reports it.
        """
        edges: list[tuple[int, int] | None] = []
        for flow in self.flows:
            if flow.name != "migration" or flow.dst_ts is None:
                continue
            key = (
                self.strip_of(flow.src_span)
                if flow.src_span is not None
                else None
            )
            edges.append(key)
        return edges


class _Missing:
    pass


_MISSING = _Missing()


def _end(span: Span) -> float:
    """A span's end; an open span ends at its start."""
    return span.start if span.end is None else span.end


def model_from_recorder(recorder: SpanRecorder) -> TraceModel:
    """Index a live recorder's own spans and flows (virtual seconds, exact)."""
    return TraceModel(recorder.spans, recorder.flows)


def model_from_events(
    events: t.Sequence[t.Mapping[str, t.Any]],
    meta: t.Mapping[str, t.Any] | None = None,
) -> TraceModel:
    """Rebuild spans and flows from exported trace events (microseconds
    back to seconds).

    Events without an integer ``sid`` come from other producers and are
    skipped.  An event the model cannot read raises :class:`ConfigError`
    naming its index in ``events``; a ``b``/``e`` or ``s``/``f`` pair is
    read, and named, at its closing event.
    """
    spans: list[Span] = []
    open_async: dict[tuple[t.Any, t.Any], dict[str, t.Any]] = {}
    open_flows: dict[t.Any, dict[str, t.Any]] = {}
    flows: list[FlowEvent] = []
    index = 0
    try:
        for index, event in enumerate(events):
            if not isinstance(event, t.Mapping):
                kind = type(event).__name__
                raise TypeError(f"expected an object, got {kind}")
            ph = event.get("ph")
            if ph == "X":
                args = dict(event.get("args") or {})
                sid = args.pop("sid", None)
                if not isinstance(sid, int):
                    continue  # foreign trace; only our own spans are modeled
                start = float(event["ts"]) / _US
                spans.append(
                    Span(
                        sid=sid,
                        parent=args.pop("parent", None),
                        name=str(event.get("name")),
                        cat=str(event.get("cat")),
                        track=_track(event),
                        start=start,
                        end=start + float(event.get("dur", 0.0)) / _US,
                        args=args,
                    )
                )
            elif ph == "b":
                open_async[(event.get("cat"), event.get("id"))] = dict(event)
            elif ph == "e":
                begun = open_async.pop(
                    (event.get("cat"), event.get("id")), None
                )
                if begun is None:
                    continue
                args = dict(begun.get("args") or {})
                sid = args.pop("sid", None)
                if not isinstance(sid, int):
                    continue
                spans.append(
                    Span(
                        sid=sid,
                        parent=args.pop("parent", None),
                        name=str(begun.get("name")),
                        cat=str(begun.get("cat")),
                        track=_track(begun),
                        start=float(begun["ts"]) / _US,
                        end=float(event["ts"]) / _US,
                        args=args,
                        overlapping=True,
                    )
                )
            elif ph == "s":
                open_flows[event.get("id")] = dict(event)
            elif ph == "f":
                begun = open_flows.pop(event.get("id"), None)
                if begun is None:
                    continue
                src_args = begun.get("args") or {}
                dst_args = event.get("args") or {}
                flows.append(
                    FlowEvent(
                        fid=int(begun["id"]),
                        name=str(begun.get("name")),
                        cat=str(begun.get("cat")),
                        src_span=src_args.get("span"),
                        src_ts=float(begun["ts"]) / _US,
                        src_track=_track(begun),
                        dst_span=dst_args.get("span"),
                        dst_ts=float(event["ts"]) / _US,
                        dst_track=_track(event),
                    )
                )
    except KeyError as exc:
        raise ConfigError(f"traceEvents[{index}] has no {exc} field") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"traceEvents[{index}] is malformed: {exc}") from exc
    return TraceModel(spans, flows, meta)


def _track(event: t.Mapping[str, t.Any]) -> Track:
    return Track(int(event["pid"]), int(event["tid"]))


def load_trace(path: str) -> TraceModel:
    """Load an exported ``{"traceEvents": [...]}`` file as a model."""
    payload = read_json(path, "trace")
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ConfigError(
            f"{path!r} is not a trace-event file (no 'traceEvents' array)"
        )
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ConfigError(f"{path!r}: 'traceEvents' is not an array")
    meta = payload.get("sais")
    try:
        return model_from_events(
            events, meta if isinstance(meta, dict) else None
        )
    except ConfigError as exc:
        raise ConfigError(f"{path!r}: {exc}") from exc


# -- stage durations ---------------------------------------------------------


def stage_durations(
    model: TraceModel,
) -> dict[tuple[int, int], dict[str, float]]:
    """Fold every strip's span tree into summed per-stage durations.

    Multi-segment stages (several wire/switch/softirq slices per strip)
    sum; the zero-duration ``irq`` instants contribute 0.0 but mark the
    stage present, so interrupt-free policies are distinguishable from
    traces that merely lack APIC spans.
    """
    folded: dict[tuple[int, int], dict[str, float]] = {}
    for key, spans in sorted(model.strips.items()):
        stages: dict[str, float] = {}
        for span in spans:
            if span.name in STAGE_NAMES:
                stages[span.name] = stages.get(span.name, 0.0) + (
                    _end(span) - span.start
                )
        root = model.strip_roots.get(key)
        if root is not None:
            stages["total"] = _end(root) - root.start
        folded[key] = stages
    return folded


# -- strip lifecycle stamps ---------------------------------------------------

#: The five lifecycle stamps of a strip, in pipeline order::
#:
#:     issued   -> the client fanned the strip request out
#:     served   -> the I/O server finished storage access (starts transmit)
#:     received -> the strip's packet cleared the client NIC wire
#:     handled  -> protocol processing finished, or the zero-interrupt
#:                 placement put the strip in place
#:     merged   -> the consumer copied the strip into the request buffer
#:
#: The stage-to-stage deltas decompose the paper's eq. (1): ``TR`` is
#: (issued..received), ``TP`` is (received..handled) and the merge delta
#: carries ``TM`` — which is where the two scheduling policies differ.
LIFECYCLE_STAGES = ("issued", "served", "received", "handled", "merged")


@dataclasses.dataclass(frozen=True)
class StageDelta:
    """Summary of one stage-to-stage latency across all traced strips."""

    from_stage: str
    to_stage: str
    count: int
    mean: float
    p95: float
    maximum: float
    #: Sample standard deviation; 0.0 when fewer than two samples exist
    #: (``statistics.stdev`` raises on n < 2 — a single traced strip is a
    #: legitimate quick-scale configuration, not an error).
    stdev: float = 0.0


@dataclasses.dataclass(frozen=True)
class LatencyBreakdown:
    """Per-stage latency decomposition of the strip pipeline."""

    deltas: tuple[StageDelta, ...]
    strips_traced: int

    def mean_of(self, from_stage: str, to_stage: str) -> float:
        """Mean latency between two adjacent stages."""
        for delta in self.deltas:
            if delta.from_stage == from_stage and delta.to_stage == to_stage:
                return delta.mean
        raise SimulationError(f"no delta {from_stage}->{to_stage} traced")

    @property
    def mean_total(self) -> float:
        """Mean issued-to-merged latency."""
        return sum_left(delta.mean for delta in self.deltas)


def strip_stage_times(
    model: TraceModel,
) -> dict[tuple[int, int], dict[str, float]]:
    """Derive each strip's lifecycle stamps from its span tree.

    * ``issued``   = the strip span's start (the fan-out instant);
    * ``served``   = the latest ``storage`` span end not after
      ``received`` (storage access done, transmit starting);
    * ``received`` = the latest ``wire`` span end not after ``handled``
      (the packet that completed the strip fully off the client NIC
      wire);
    * ``handled``  = the strip span's ``handled_at`` argument: the
      instant the strip completed — protocol work done, before any
      cross-core wake-up IPI, or the zero-interrupt placement.  A strip
      completes once; a duplicate of a retried strip never does;
    * ``merged``   = the ``merge`` span's end (consumer copy done).

    The bounds keep a retried strip's record on one attempt: without
    them a duplicate's late serve and arrival would land after the
    strip was handled and merged.  Strips missing stages (writes never
    merge; aborted strips never arrive) keep partial records, whose
    unbounded stages take the latest end.
    """
    times: dict[tuple[int, int], dict[str, float]] = {}
    for key, spans in sorted(model.strips.items()):
        root = model.strip_roots.get(key)
        if root is None:
            continue
        handled = (root.args or {}).get("handled_at")
        if not isinstance(handled, (int, float)):
            handled = None
        received = _latest_end(spans, "wire", handled)
        stamps = {
            "issued": root.start,
            "served": _latest_end(spans, "storage", received),
            "received": received,
            "handled": handled,
            "merged": _latest_end(spans, "merge", None),
        }
        times[key] = {
            stage: when for stage, when in stamps.items() if when is not None
        }
    return times


#: Slack when comparing instants read back from an exported file, whose
#: microsecond scaling can move a span end by a few ulps.
_SLACK = 1e-12


def _latest_end(
    spans: t.Iterable[Span], name: str, bound: float | None
) -> float | None:
    """Latest end of the ``name`` spans not after ``bound``, capped at it."""
    ends = [_end(s) for s in spans if s.name == name]
    if bound is None:
        return max(ends, default=None)
    latest = max((end for end in ends if end <= bound + _SLACK), default=None)
    return None if latest is None else min(latest, bound)


def breakdown_from_records(
    records: t.Iterable[t.Mapping[str, float]],
) -> LatencyBreakdown:
    """Aggregate stage-to-stage latencies over stage-timestamp records.

    Each record maps stage name -> timestamp; records missing any of
    :data:`LIFECYCLE_STAGES` are skipped (a write strip never merges, an
    aborted strip never arrives).
    """
    stages = LIFECYCLE_STAGES
    series: dict[tuple[str, str], list[float]] = {
        (a, b): [] for a, b in zip(stages, stages[1:])
    }
    complete = 0
    for record in records:
        if not all(stage in record for stage in stages):
            continue
        complete += 1
        for a, b in zip(stages, stages[1:]):
            series[(a, b)].append(record[b] - record[a])
    if complete == 0:
        raise SimulationError("no fully-traced strips to summarize")
    deltas = []
    for (a, b), values in series.items():
        values.sort()
        deltas.append(
            StageDelta(
                from_stage=a,
                to_stage=b,
                count=len(values),
                mean=statistics.fmean(values),
                p95=values[min(len(values) - 1, int(0.95 * len(values)))],
                maximum=values[-1],
                stdev=(
                    statistics.stdev(values) if len(values) >= 2 else 0.0
                ),
            )
        )
    return LatencyBreakdown(deltas=tuple(deltas), strips_traced=complete)


def breakdown_from_spans(model: TraceModel) -> LatencyBreakdown:
    """Stage-to-stage latencies of every fully-stamped strip in a run."""
    return breakdown_from_records(strip_stage_times(model).values())


# -- A/B trace diff ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageDiff:
    """One stage's total duration across the aligned strips of two runs."""

    stage: str
    a_total: float
    b_total: float
    count: int

    @property
    def delta(self) -> float:
        return self.b_total - self.a_total


@dataclasses.dataclass(frozen=True)
class SpanRegression:
    """One aligned (client, strip, stage) whose duration moved."""

    client: int
    strip: int
    stage: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a


@dataclasses.dataclass(frozen=True)
class TraceDiff:
    """Everything ``sais-repro trace diff`` reports."""

    a_label: str
    b_label: str
    strips_a: int
    strips_b: int
    aligned: int
    only_a: int
    only_b: int
    stages: tuple[StageDiff, ...]
    migration_edges_a: int
    migration_edges_b: int
    added_edges: tuple[tuple[int, int], ...]
    removed_edges: tuple[tuple[int, int], ...]
    regressed: tuple[SpanRegression, ...]
    mean_total_a: float
    mean_total_b: float

    def to_dict(self) -> dict[str, t.Any]:
        return {
            "a_label": self.a_label,
            "b_label": self.b_label,
            "strips": {
                "a": self.strips_a,
                "b": self.strips_b,
                "aligned": self.aligned,
                "only_a": self.only_a,
                "only_b": self.only_b,
            },
            "stages": [
                {
                    "stage": row.stage,
                    "a_total_s": row.a_total,
                    "b_total_s": row.b_total,
                    "delta_s": row.delta,
                    "count": row.count,
                }
                for row in self.stages
            ],
            "migration_edges": {
                "a": self.migration_edges_a,
                "b": self.migration_edges_b,
                "added": [list(edge) for edge in self.added_edges],
                "removed": [list(edge) for edge in self.removed_edges],
            },
            "regressed": [
                {
                    "client": row.client,
                    "strip": row.strip,
                    "stage": row.stage,
                    "a_s": row.a,
                    "b_s": row.b,
                    "delta_s": row.delta,
                }
                for row in self.regressed
            ],
            "mean_total": {
                "a_s": self.mean_total_a,
                "b_s": self.mean_total_b,
                "delta_s": self.mean_total_b - self.mean_total_a,
            },
        }


def _edge_counts(
    edges: t.Sequence[tuple[int, int] | None],
) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for key in edges:
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


def diff_traces(
    a: TraceModel, b: TraceModel, top: int = 10
) -> TraceDiff:
    """Align two runs of the same point and attribute their latency gap.

    Spans align on stable ``(client, strip, stage)`` keys — strip ids
    are deterministic functions of the workload, so two runs of one grid
    point under different policies align perfectly; strips present in
    only one trace are counted but never silently dropped into the
    stage totals (which cover aligned strips only, apples to apples).
    """
    folded_a = stage_durations(a)
    folded_b = stage_durations(b)
    aligned_keys = sorted(set(folded_a) & set(folded_b))

    stages: list[StageDiff] = []
    for stage in STAGE_NAMES:
        a_total = b_total = 0.0
        count = 0
        for key in aligned_keys:
            in_a = stage in folded_a[key]
            in_b = stage in folded_b[key]
            if not in_a and not in_b:
                continue
            count += 1
            a_total += folded_a[key].get(stage, 0.0)
            b_total += folded_b[key].get(stage, 0.0)
        if count:
            stages.append(
                StageDiff(
                    stage=stage, a_total=a_total, b_total=b_total, count=count
                )
            )

    regressions = [
        SpanRegression(
            client=key[0],
            strip=key[1],
            stage=stage,
            a=folded_a[key].get(stage, 0.0),
            b=folded_b[key].get(stage, 0.0),
        )
        for key in aligned_keys
        for stage in STAGE_NAMES
        if stage in folded_a[key] or stage in folded_b[key]
    ]
    regressions = [row for row in regressions if row.delta != 0.0]
    regressions.sort(
        key=lambda row: (-row.delta, row.client, row.strip, row.stage)
    )

    edges_a = a.migration_edges()
    edges_b = b.migration_edges()
    counts_a = _edge_counts(edges_a)
    counts_b = _edge_counts(edges_b)

    totals_a = [r["total"] for r in folded_a.values() if "total" in r]
    totals_b = [r["total"] for r in folded_b.values() if "total" in r]
    return TraceDiff(
        a_label=a.label,
        b_label=b.label,
        strips_a=len(folded_a),
        strips_b=len(folded_b),
        aligned=len(aligned_keys),
        only_a=len(folded_a) - len(aligned_keys),
        only_b=len(folded_b) - len(aligned_keys),
        stages=tuple(stages),
        migration_edges_a=len(edges_a),
        migration_edges_b=len(edges_b),
        added_edges=tuple(sorted(set(counts_b) - set(counts_a))),
        removed_edges=tuple(sorted(set(counts_a) - set(counts_b))),
        regressed=tuple(regressions[: max(0, top)]),
        mean_total_a=(
            sum_left(totals_a) / len(totals_a) if totals_a else 0.0
        ),
        mean_total_b=(
            sum_left(totals_b) / len(totals_b) if totals_b else 0.0
        ),
    )


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.3f}us"


def render_diff(diff: TraceDiff) -> str:
    """Deterministic ASCII report of one A/B diff."""
    lines = [
        f"trace diff: A={diff.a_label} ({diff.strips_a} strips) vs "
        f"B={diff.b_label} ({diff.strips_b} strips), "
        f"{diff.aligned} aligned"
        + (
            f" ({diff.only_a} only in A, {diff.only_b} only in B)"
            if diff.only_a or diff.only_b
            else ""
        ),
        f"mean strip total: {_us(diff.mean_total_a)} -> "
        f"{_us(diff.mean_total_b)} "
        f"({_us(diff.mean_total_b - diff.mean_total_a)})",
        f"{'stage':<14}{'A total':>14}{'B total':>14}{'delta (B-A)':>16}"
        f"{'strips':>8}",
    ]
    for row in diff.stages:
        lines.append(
            f"{row.stage:<14}{_us(row.a_total):>14}{_us(row.b_total):>14}"
            f"{_us(row.delta):>16}{row.count:>8}"
        )
    lines.append(
        f"migration edges: A={diff.migration_edges_a} "
        f"B={diff.migration_edges_b} "
        f"(added {len(diff.added_edges)}, removed {len(diff.removed_edges)})"
    )
    if diff.regressed:
        lines.append(f"top {len(diff.regressed)} moved spans (B - A):")
        for row in diff.regressed:
            lines.append(
                f"  client {row.client} strip {row.strip} "
                f"{row.stage:<12} {_us(row.a)} -> {_us(row.b)} "
                f"({'+' if row.delta >= 0 else ''}{_us(row.delta)})"
            )
    else:
        lines.append("no aligned span moved")
    return "\n".join(lines)
