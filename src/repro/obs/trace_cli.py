"""``sais-repro trace`` — run one experiment point with span tracing on.

This is the one code path that constructs a :class:`SpanRecorder`: the
normal experiment runner never does, which is what keeps tracing strictly
zero-cost for everything else.  The traced run is a single grid point of a
registered experiment (default: point 0), re-run in-process with the
recorder threaded through the cluster builder, then exported as Chrome
trace-event JSON (Perfetto/``chrome://tracing`` loadable) or rendered as
an ASCII timeline.

The default policy is ``irqbalance`` rather than the experiment's own
default: source-aware scheduling steers every interrupt to the consumer
core, so a source-aware trace contains *no* strip-migration flow edges —
correct, but it hides exactly the mechanism a trace is usually opened to
look at.  Pass ``--policy source_aware`` to see the quiet interconnect.
"""

from __future__ import annotations

import json
import typing as t

from ..config import ClusterConfig
from ..errors import ConfigError, ensure_parent_dir
from .export import ascii_timeline, validate_trace_file, write_trace
from .spans import SpanRecorder

__all__ = [
    "resolve_experiment",
    "trace_point_config",
    "run_trace",
    "run_trace_diff",
]


def resolve_experiment(name: str) -> str:
    """Resolve an experiment id, accepting any unique prefix.

    The registered ids carry suffixes (``fig5_bandwidth_3g``,
    ``sec5c_bandwidth_1g``); the CLI accepts ``fig5_bandwidth`` and
    similar shorthand as long as exactly one id matches.
    """
    from ..experiments import all_experiment_ids

    ids = all_experiment_ids()
    if name in ids:
        return name
    matches = [exp_id for exp_id in ids if exp_id.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {', '.join(ids)}"
        )
    raise ConfigError(
        f"ambiguous experiment prefix {name!r}: {', '.join(matches)}"
    )


def trace_point_config(
    exp_id: str, scale: str, point: int
) -> tuple[ClusterConfig, int]:
    """The ``point``-th traceable grid point of an experiment.

    Only :class:`ClusterConfig` specs are traceable (some grids carry
    composite comparison specs; those still embed plain configs, but the
    trace CLI keeps to the simple contract).  Returns the config plus the
    number of traceable points, for the CLI's error/summary text.
    """
    from ..experiments.base import get_grid_experiment, resolve_scale

    specs = [
        spec
        for spec in get_grid_experiment(exp_id).grid(resolve_scale(scale))
        if isinstance(spec, ClusterConfig)
    ]
    if not specs:
        raise ConfigError(
            f"experiment {exp_id!r} has no plain-config grid points; "
            "pick one of the fig5/sec5c bandwidth sweeps"
        )
    if not 0 <= point < len(specs):
        raise ConfigError(
            f"--point {point} out of range: {exp_id} at this scale has "
            f"{len(specs)} traceable point(s)"
        )
    return specs[point], len(specs)


def run_trace(
    experiment: str,
    scale: str = "quick",
    out: str | None = None,
    point: int = 0,
    policy: str | None = "irqbalance",
    timeline: bool = False,
    echo: t.Callable[[str], None] = print,
) -> int:
    """Run one traced point; returns a process exit code.

    Writes Chrome trace-event JSON to ``out`` when given (and validates
    the written file), and prints the ASCII timeline when ``timeline`` is
    set or no ``out`` was given.
    """
    from ..cluster.simulation import Simulation

    exp_id = resolve_experiment(experiment)
    config, n_points = trace_point_config(exp_id, scale, point)
    if policy:
        config = config.with_policy(policy)
    if out is not None:
        ensure_parent_dir(out, "--out")

    recorder = SpanRecorder()
    sim = Simulation(config, spans=recorder)
    metrics = sim.run()

    echo(
        f"trace: {exp_id} point {point}/{n_points - 1} "
        f"(scale={scale}, policy={config.policy}): "
        f"{len(recorder.spans)} spans, {len(recorder.flows)} flows, "
        f"{sim.cluster.env.events_processed} events, "
        f"{metrics.elapsed * 1e3:.2f} ms simulated"
    )

    if out is not None:
        n_events = write_trace(
            recorder,
            out,
            meta={
                "experiment": exp_id,
                "point": point,
                "scale": scale,
                "policy": config.policy,
            },
        )
        problems = validate_trace_file(out)
        if problems:
            for problem in problems[:10]:
                echo(f"trace: INVALID: {problem}")
            return 1
        echo(
            f"trace: wrote {out} ({n_events} trace events); open it at "
            "https://ui.perfetto.dev or chrome://tracing"
        )
    if timeline or out is None:
        echo(ascii_timeline(recorder))
    return 0


def run_trace_diff(
    a_path: str,
    b_path: str,
    out: str | None = None,
    top: int = 10,
    echo: t.Callable[[str], None] = print,
) -> int:
    """``sais-repro trace diff A.json B.json``: align and attribute.

    Prints the deterministic ASCII report; ``out`` additionally writes
    the structured diff as JSON (sorted keys, stable order — two
    invocations on the same inputs are byte-identical).
    """
    from .analysis import diff_traces, load_trace, render_diff

    if out is not None:
        ensure_parent_dir(out, "--out")
    diff = diff_traces(load_trace(a_path), load_trace(b_path), top=top)
    echo(render_diff(diff))
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(diff.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        echo(f"trace diff: wrote {out}")
    return 0
