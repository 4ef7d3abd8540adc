"""Causal span recording for one simulated cluster.

A :class:`Span` is an interval of virtual time on a *track* (a Perfetto
process/thread pair) with an optional parent span, forming a tree: one
application read reconstructs as ``request -> strip -> {serve, switch,
wire, softirq, merge -> migration}``.  A :class:`FlowEvent` is a directed
edge between two spans — used for the two causal hand-offs the paper's
argument hinges on: *IRQ placement* (NIC wire completion -> the softirq
span on whichever core the policy chose) and *strip migration* (the
handling core's softirq span -> the consumer's merge span).

Determinism: span and flow ids come from plain monotone counters advanced
in event-dispatch order, and all timestamps are ``env.now`` virtual time.
Two runs of the same config produce byte-identical traces (asserted by
``tests/obs/test_trace_export.py``).

Cost discipline: the recorder only ever appends to lists and dicts inside
callbacks that already exist; it never creates, schedules or reorders
calendar events, so enabling it cannot change ``events_processed`` or any
measured metric (asserted by ``tests/obs/test_zero_cost.py``).  When
tracing is off there is no recorder at all — every call site guards with
``if spans is not None``.
"""

from __future__ import annotations

import dataclasses
import typing as t
from itertools import count

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..des import Environment

__all__ = [
    "Track",
    "Span",
    "FlowEvent",
    "SpanRecorder",
    "FABRIC_PID",
    "client_pid",
    "server_pid",
    "PFS_TID",
    "NIC_TID",
    "APIC_TID",
    "BUS_TID",
    "SERVE_TID",
]


class Track(t.NamedTuple):
    """A Perfetto-style (process, thread) lane a span renders on."""

    pid: int
    tid: int


#: The switch fabric's process id.
FABRIC_PID = 1


def client_pid(client: int) -> int:
    """Trace process id of one client node (cores are its threads)."""
    return 100 + client


def server_pid(server: int) -> int:
    """Trace process id of one I/O server node."""
    return 1000 + server


#: Client-side non-core lanes (core ``i`` occupies tid ``i``).
PFS_TID = 90  # request/strip lifecycle spans (async lane)
NIC_TID = 91  # NIC wire serialization
APIC_TID = 92  # IRQ delivery instants
BUS_TID = 93  # interconnect (strip migration transfers)

#: Server-side lane for serve/storage/transmit spans (async lane).
SERVE_TID = 0


@dataclasses.dataclass(slots=True)
class Span:
    """One interval of virtual time in the causal tree."""

    sid: int
    parent: int | None
    name: str
    cat: str
    track: Track
    start: float
    end: float | None = None
    args: dict[str, t.Any] | None = None
    #: Rendered as an async (``ph: b/e``) pair instead of a complete
    #: ``X`` slice — for lanes where spans legitimately overlap
    #: (concurrent requests on the PFS lane, concurrent serves on one
    #: server).  Core/wire/fabric lanes are serialized and use ``X``.
    overlapping: bool = False


@dataclasses.dataclass(slots=True)
class FlowEvent:
    """A causal edge between two spans (Perfetto ``s``/``f`` flow pair)."""

    fid: int
    name: str
    cat: str
    src_span: int
    src_ts: float
    src_track: Track
    dst_span: int | None = None
    dst_ts: float | None = None
    dst_track: Track | None = None


class SpanRecorder:
    """Collects spans, flow edges and track labels for one cluster run."""

    def __init__(self, env: "Environment | None" = None) -> None:
        #: Bound by the cluster builder (the recorder is constructed
        #: before the Environment exists); see :meth:`bind`.
        self.env = env
        self.spans: list[Span] = []
        self.flows: list[FlowEvent] = []
        #: ``track -> (process label, thread label)``.
        self.track_labels: dict[Track, tuple[str, str]] = {}
        self._sids = count(1)
        self._fids = count(1)
        self._open: dict[int, Span] = {}
        # -- strip correlation state (how layers find their parent span) --
        #: ``(client, strip_id) -> strip span id``.
        self._strip_spans: dict[tuple[int, int], int] = {}
        #: ``(client, request_id) -> request span id``.
        self._request_spans: dict[tuple[int, int], int] = {}
        #: ``(client, strip_id) -> (softirq span id, end ts, core)`` of the
        #: last protocol-processing span — the migration flow's source.
        self._handled: dict[tuple[int, int], tuple[int, float, int]] = {}

    # -- tracks ------------------------------------------------------------

    def label_track(self, track: Track, process: str, thread: str) -> None:
        """Name a (pid, tid) lane for the exporter's metadata events."""
        self.track_labels.setdefault(track, (process, thread))

    # -- generic span API --------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str,
        track: Track,
        parent: int | None = None,
        args: dict[str, t.Any] | None = None,
        start: float | None = None,
        overlapping: bool = False,
    ) -> int:
        """Open a span at ``start`` (default: now); returns its id."""
        span = Span(
            sid=next(self._sids),
            parent=parent,
            name=name,
            cat=cat,
            track=track,
            start=self.env.now if start is None else start,
            args=args,
            overlapping=overlapping,
        )
        self.spans.append(span)
        self._open[span.sid] = span
        return span.sid

    def end(
        self,
        sid: int,
        end: float | None = None,
        args: dict[str, t.Any] | None = None,
    ) -> None:
        """Close an open span at ``end`` (default: now)."""
        span = self._open.pop(sid, None)
        if span is None:
            raise SimulationError(f"span {sid} is not open")
        span.end = self.env.now if end is None else end
        if args:
            span.args = {**(span.args or {}), **args}

    def end_if_open(
        self,
        sid: int,
        end: float | None = None,
        args: dict[str, t.Any] | None = None,
    ) -> bool:
        """Close a span if (and only if) it is still open.

        For sites that may legitimately fire twice — a duplicate strip
        completion under an active fault plan retires the same span the
        original arrival already closed.
        """
        if sid not in self._open:
            return False
        self.end(sid, end=end, args=args)
        return True

    def annotate(self, sid: int, args: dict[str, t.Any]) -> None:
        """Merge ``args`` into a span's arguments, open or closed."""
        span = self._span_by_id(sid)
        span.args = {**(span.args or {}), **args}

    def add(
        self,
        name: str,
        cat: str,
        track: Track,
        start: float,
        end: float,
        parent: int | None = None,
        args: dict[str, t.Any] | None = None,
        overlapping: bool = False,
    ) -> int:
        """Record a complete span with explicit bounds (analytic hops)."""
        span = Span(
            sid=next(self._sids),
            parent=parent,
            name=name,
            cat=cat,
            track=track,
            start=start,
            end=end,
            args=args,
            overlapping=overlapping,
        )
        self.spans.append(span)
        return span.sid

    def instant(
        self,
        name: str,
        cat: str,
        track: Track,
        ts: float | None = None,
        parent: int | None = None,
        args: dict[str, t.Any] | None = None,
    ) -> int:
        """A zero-duration marker (Perfetto instant event)."""
        when = self.env.now if ts is None else ts
        return self.add(
            name, cat, track, when, when, parent=parent, args=args
        )

    # -- flow edges --------------------------------------------------------

    def flow_begin(
        self, name: str, cat: str, src_span: int, ts: float | None = None
    ) -> int:
        """Start a causal edge leaving ``src_span``; returns the flow id."""
        src = self._span_by_id(src_span)
        flow = FlowEvent(
            fid=next(self._fids),
            name=name,
            cat=cat,
            src_span=src_span,
            src_ts=self.env.now if ts is None else ts,
            src_track=src.track,
        )
        self.flows.append(flow)
        return flow.fid

    def flow_end(
        self, fid: int, dst_span: int, ts: float | None = None
    ) -> None:
        """Terminate a causal edge inside ``dst_span``."""
        for flow in reversed(self.flows):
            if flow.fid == fid:
                flow.dst_span = dst_span
                flow.dst_ts = self.env.now if ts is None else ts
                flow.dst_track = self._span_by_id(dst_span).track
                return
        raise SimulationError(f"flow {fid} was never started")

    def flow(
        self,
        name: str,
        cat: str,
        src_span: int,
        src_ts: float,
        dst_span: int,
        dst_ts: float,
    ) -> int:
        """Record a complete edge when both endpoints are already known."""
        fid = self.flow_begin(name, cat, src_span, ts=src_ts)
        self.flow_end(fid, dst_span, ts=dst_ts)
        return fid

    # -- strip correlation -------------------------------------------------

    def request_begin(
        self, client: int, request_id: int, sid: int
    ) -> None:
        """Index an open request span for later strip parenting."""
        self._request_spans[(client, request_id)] = sid

    def request_span(self, client: int, request_id: int) -> int | None:
        return self._request_spans.get((client, request_id))

    def strip_begin(self, client: int, strip_id: int, sid: int) -> None:
        """Index an open strip span; downstream layers parent onto it."""
        self._strip_spans[(client, strip_id)] = sid

    def strip_span(self, client: int, strip_id: int) -> int | None:
        """The strip's span id, or None for untracked traffic."""
        return self._strip_spans.get((client, strip_id))

    def note_handled(
        self, client: int, strip_id: int, sid: int, end: float, core: int
    ) -> None:
        """Remember which softirq span completed a strip (flow source)."""
        self._handled[(client, strip_id)] = (sid, end, core)

    def handled_span(
        self, client: int, strip_id: int
    ) -> tuple[int, float, int] | None:
        return self._handled.get((client, strip_id))

    # -- finalization ------------------------------------------------------

    def close_open_spans(self, at: float | None = None) -> int:
        """Close every still-open span (end of run); returns the count.

        A run stops when its last application process finishes, so work
        still in flight then stays open even in a normally-completed run:
        the softirq span of a write run's final ack is still charging its
        wake-up IPI.  Aborted runs (fault tripwires, horizons) leave
        longer tails.  Every one is pinned to the final clock so the
        exported JSON is always well-formed.
        """
        when = self.env.now if at is None else at
        closed = 0
        for span in list(self._open.values()):
            span.end = max(when, span.start)
            closed += 1
        self._open.clear()
        return closed

    @property
    def open_spans(self) -> int:
        """Number of spans still open."""
        return len(self._open)

    def _span_by_id(self, sid: int) -> Span:
        # Spans are appended in id order: spans[sid-1] unless the list was
        # never compacted (it never is).
        index = sid - 1
        if 0 <= index < len(self.spans) and self.spans[index].sid == sid:
            return self.spans[index]
        for span in self.spans:  # pragma: no cover - defensive fallback
            if span.sid == sid:
                return span
        raise SimulationError(f"unknown span id {sid}")
