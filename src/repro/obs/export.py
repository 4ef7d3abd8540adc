"""Chrome trace-event export (Perfetto / chrome://tracing) + ASCII fallback.

The JSON dialect is the Trace Event Format's JSON-object flavor:
``{"traceEvents": [...]}`` where each event carries a phase ``ph`` —

* ``M``   metadata (process/thread names from the recorder's track labels),
* ``X``   complete slices (non-overlapping lanes: cores, NIC wire, fabric),
* ``b``/``e`` async slices (overlapping lanes: PFS request/strip lifecycle,
  concurrent serves on one server),
* ``s``/``f`` flow arrows (IRQ placement, strip migration).

Timestamps are virtual seconds scaled to microseconds (the format's
native unit) — never wall-clock, so exports are byte-reproducible.

:func:`validate_trace` is a lightweight structural checker used by the
test suite and the CI tracing smoke job; it verifies phase/field shape
and that async and flow events pair up, without needing any third-party
schema library.
"""

from __future__ import annotations

import json
import typing as t

from .spans import Span, SpanRecorder, Track

__all__ = [
    "to_trace_events",
    "write_trace",
    "validate_trace",
    "validate_trace_file",
    "ascii_timeline",
]

#: Virtual seconds -> trace-event microseconds.
_US = 1e6


def _span_args(span: Span) -> dict[str, t.Any]:
    args: dict[str, t.Any] = {"sid": span.sid}
    if span.parent is not None:
        args["parent"] = span.parent
    if span.args:
        args.update(span.args)
    return args


def to_trace_events(recorder: SpanRecorder) -> list[dict[str, t.Any]]:
    """Render a recorder's spans + flows as trace-event dicts.

    Order is deterministic: metadata first, then spans in id order
    (async ``b``/``e`` pairs emitted together), then flow pairs in id
    order.  Still-open spans are pinned to the final clock first.
    """
    recorder.close_open_spans()
    events: list[dict[str, t.Any]] = []

    for track in sorted(recorder.track_labels):
        process, thread = recorder.track_labels[track]
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": track.pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": track.pid,
                "tid": track.tid,
                "args": {"name": thread},
            }
        )

    for span in recorder.spans:
        end = span.start if span.end is None else span.end
        if span.overlapping:
            common = {
                "name": span.name,
                "cat": span.cat,
                "id": span.sid,
                "pid": span.track.pid,
                "tid": span.track.tid,
            }
            events.append(
                {
                    "ph": "b",
                    "ts": span.start * _US,
                    "args": _span_args(span),
                    **common,
                }
            )
            events.append({"ph": "e", "ts": end * _US, **common})
        else:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.cat,
                    "ts": span.start * _US,
                    "dur": (end - span.start) * _US,
                    "pid": span.track.pid,
                    "tid": span.track.tid,
                    "args": _span_args(span),
                }
            )

    for flow in recorder.flows:
        if flow.dst_track is None or flow.dst_ts is None:
            continue  # dangling edge (aborted run); exporter skips it
        events.append(
            {
                "ph": "s",
                "name": flow.name,
                "cat": flow.cat,
                "id": flow.fid,
                "ts": flow.src_ts * _US,
                "pid": flow.src_track.pid,
                "tid": flow.src_track.tid,
                # Endpoint span ids survive the JSON round trip so the
                # analysis loader (repro.obs.analysis) can rebuild the
                # causal graph from an exported file, not just a live
                # recorder.  Perfetto ignores unknown args.
                "args": {"span": flow.src_span},
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "name": flow.name,
                "cat": flow.cat,
                "id": flow.fid,
                "ts": flow.dst_ts * _US,
                "pid": flow.dst_track.pid,
                "tid": flow.dst_track.tid,
                "args": {"span": flow.dst_span},
            }
        )
    return events


def write_trace(
    recorder: SpanRecorder,
    path: str,
    meta: t.Mapping[str, t.Any] | None = None,
) -> int:
    """Write ``{"traceEvents": [...]}`` JSON to ``path``; returns #events.

    ``meta`` (policy, experiment, point, scale ...) lands under a
    top-level ``"sais"`` key — outside ``traceEvents``, so Perfetto and
    catapult ignore it, while ``trace diff`` uses it to label runs.
    """
    events = to_trace_events(recorder)
    payload: dict[str, t.Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        payload["sais"] = dict(meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(events)


# -- validation ------------------------------------------------------------

_PHASES = frozenset("MXbesf")


def validate_trace(payload: t.Any) -> list[str]:
    """Structural check of a trace-event JSON object.

    Returns a list of problems (empty = valid).  Checks the shape each
    consumer (Perfetto, catapult) relies on: phases known, required
    fields typed, complete slices non-negative, async ``b``/``e`` and
    flow ``s``/``f`` events paired.
    """
    problems: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top level must be an object with a 'traceEvents' array"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]

    async_open: dict[tuple[t.Any, t.Any], int] = {}
    flow_starts: dict[t.Any, int] = {}
    flow_ends: dict[t.Any, int] = {}
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        if ph == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: unexpected metadata {event.get('name')!r}")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric 'ts'")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: complete slice missing 'dur'")
            elif dur < 0:
                problems.append(f"{where}: negative duration {dur}")
        elif ph in ("b", "e"):
            key = (event.get("cat"), event.get("id"))
            if event.get("id") is None:
                problems.append(f"{where}: async event missing 'id'")
            elif ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) <= 0:
                    problems.append(f"{where}: async end without begin (id={key[1]})")
                else:
                    async_open[key] -= 1
        elif ph in ("s", "f"):
            fid = event.get("id")
            if fid is None:
                problems.append(f"{where}: flow event missing 'id'")
            elif ph == "s":
                flow_starts[fid] = flow_starts.get(fid, 0) + 1
            else:
                flow_ends[fid] = flow_ends.get(fid, 0) + 1

    for key, n in sorted(async_open.items(), key=repr):
        if n > 0:
            problems.append(f"async slice id={key[1]} opened {n}x without end")
    for fid in sorted(flow_starts, key=repr):
        if flow_ends.get(fid, 0) != flow_starts[fid]:
            problems.append(f"flow id={fid} start/finish mismatch")
    for fid in sorted(flow_ends, key=repr):
        if fid not in flow_starts:
            problems.append(f"flow id={fid} finishes without a start")
    return problems


def validate_trace_file(path: str) -> list[str]:
    """Load ``path`` as JSON and :func:`validate_trace` it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    return validate_trace(payload)


# -- ASCII fallback --------------------------------------------------------

def ascii_timeline(
    recorder: SpanRecorder,
    width: int = 72,
    max_spans: int = 400,
) -> str:
    """Render the span forest as an indented text tree with time bars.

    For terminals without a Perfetto tab: each line shows the span's
    depth, name, [start..end] in milliseconds, and a proportional bar.
    Flow edges are listed after the tree.
    """
    recorder.close_open_spans()
    spans = recorder.spans
    if not spans:
        return "(no spans recorded)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end if s.end is not None else s.start for s in spans)
    horizon = max(t1 - t0, 1e-12)
    bar_width = max(10, width - 52)

    children: dict[int | None, list[Span]] = {}
    by_id = {s.sid: s for s in spans}
    for span in spans:
        parent = span.parent if span.parent in by_id else None
        children.setdefault(parent, []).append(span)

    lines = [
        f"span timeline: {len(spans)} spans, {len(recorder.flows)} flows, "
        f"{(t1 - t0) * 1e3:.3f} ms"
    ]
    emitted = 0

    def emit(span: Span, depth: int) -> None:
        nonlocal emitted
        if emitted >= max_spans:
            return
        emitted += 1
        end = span.start if span.end is None else span.end
        lo = int((span.start - t0) / horizon * bar_width)
        hi = max(lo + 1, int((end - t0) / horizon * bar_width))
        bar = " " * lo + "#" * min(hi - lo, bar_width - lo)
        label = "  " * depth + span.name
        lines.append(
            f"{label:<34.34} [{(span.start - t0) * 1e3:9.3f}ms "
            f"+{(end - span.start) * 1e6:8.1f}us] |{bar:<{bar_width}}|"
        )
        for child in children.get(span.sid, ()):
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    if emitted >= max_spans:
        lines.append(f"... ({len(spans) - emitted} more spans elided)")

    closed_flows = [f for f in recorder.flows if f.dst_span is not None]
    if closed_flows:
        lines.append("flows:")
        for flow in closed_flows[:50]:
            src = by_id.get(flow.src_span)
            dst = by_id.get(flow.dst_span) if flow.dst_span else None
            lines.append(
                f"  {flow.name}: {src.name if src else flow.src_span} "
                f"-> {dst.name if dst else flow.dst_span} "
                f"(+{(flow.dst_ts - flow.src_ts) * 1e6:.1f}us)"
            )
        if len(closed_flows) > 50:
            lines.append(f"  ... ({len(closed_flows) - 50} more flows elided)")
    return "\n".join(lines)
