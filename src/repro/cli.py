"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    sais-repro list                       # show available experiments
    sais-repro run fig5_bandwidth_3g      # regenerate one figure
    sais-repro run all --scale quick      # everything, small runs
    sais-repro run all --jobs 8           # fan grid points over 8 workers
    sais-repro summary --jobs 4           # near-instant once cached
    sais-repro trace fig5_bandwidth       # span-trace one grid point
    python -m repro ...                   # same thing

Results are cached content-addressed under ``--cache-dir`` (default
``$REPRO_CACHE_DIR`` or ``~/.cache/sais-repro``); pass ``--no-cache`` to
bypass reads and writes.  ``--jobs N`` is a pure speed knob: grid points
are deterministic and reassembled in grid order, so the output is
byte-identical to ``--jobs 1`` (see
``tests/experiments/test_determinism.py``).  ``--fault-plan FILE`` degrades
the fabric of the Fig. 5-11 grids and the scenario sweeps from a JSON
fault plan (EXPERIMENTS.md, "Fault injection").
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from . import __version__
from .core.policy import available_policies
from .errors import ConfigError, ReproError, ensure_parent_dir
from .experiments import all_experiment_ids
from .experiments.base import SCALES

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import RunSummary
    from .scenarios import SweepRequest

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sais-repro",
        description=(
            "Reproduction of 'A Source-aware Interrupt Scheduling for "
            "Modern Parallel I/O Systems' (SAIs, IPPS 2012)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_runner_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--jobs",
            type=positive_int,
            default=1,
            metavar="N",
            help="worker processes for grid points (default: 1 = in-process)",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help=(
                "result cache directory (default: $REPRO_CACHE_DIR or "
                "~/.cache/sais-repro)"
            ),
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the result cache entirely (no reads, no writes)",
        )
        command.add_argument(
            "--progress",
            action="store_true",
            help="print per-experiment progress lines to stderr",
        )
        command.add_argument(
            "--fault-plan",
            default=None,
            metavar="FILE",
            help=(
                "JSON fault plan (repro.faults.FaultPlan fields) injected "
                "into every experiment built from the standard sweeps"
            ),
        )
        command.add_argument(
            "--fault-seed",
            type=int,
            default=None,
            metavar="N",
            help="override the fault plan's seed (requires --fault-plan)",
        )

    sub.add_parser("list", help="list available experiments")

    summary = sub.add_parser(
        "summary",
        help="run every experiment and print one paper-vs-measured grid",
    )
    summary.add_argument(
        "--scale", choices=SCALES, default="quick",
        help="run-length preset (default: quick)",
    )
    add_runner_options(summary)

    run = sub.add_parser("run", help="run experiments and print their tables")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (or 'all')",
    )
    run.add_argument(
        "--scale",
        choices=SCALES,
        default="default",
        help="run-length preset (quick/default/full)",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="also render the figure as terminal bars",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    add_runner_options(run)

    trace = sub.add_parser(
        "trace",
        help=(
            "run one experiment point with causal span tracing and export "
            "a Perfetto-loadable Chrome trace-event JSON; 'trace diff A.json "
            "B.json' aligns two exported traces and attributes their gap"
        ),
    )
    trace.add_argument(
        "experiment",
        help=(
            "experiment id or unique prefix (e.g. fig5_bandwidth), or "
            "'diff' to compare two exported traces"
        ),
    )
    trace.add_argument(
        "inputs",
        nargs="*",
        metavar="TRACE.json",
        help="for 'trace diff': exactly two exported trace files (A, B)",
    )
    trace.add_argument(
        "--scale",
        choices=SCALES,
        default="quick",
        help="run-length preset (default: quick)",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=(
            "write Chrome trace-event JSON here (omit for the ASCII "
            "timeline)"
        ),
    )
    trace.add_argument(
        "--point",
        type=int,
        default=0,
        metavar="N",
        help="grid point index within the experiment (default: 0)",
    )
    trace.add_argument(
        "--policy",
        default="irqbalance",
        metavar="NAME",
        help=(
            "interrupt policy for the traced run (default: irqbalance — "
            "source_aware traces contain no migration edges by design); "
            "one of: " + ", ".join(available_policies())
        ),
    )
    trace.add_argument(
        "--timeline",
        action="store_true",
        help="also print the ASCII timeline when writing --out",
    )
    trace.add_argument(
        "--top",
        type=positive_int,
        default=10,
        metavar="N",
        help="for 'trace diff': rows in the moved-spans table (default: 10)",
    )

    sweep = sub.add_parser(
        "sweep",
        help=(
            "run generated-scenario sweeps and print an aggregate "
            "win-rate report bucketed by topology features (cookbook: "
            "docs/SCENARIOS.md)"
        ),
    )
    sweep.add_argument(
        "experiments",
        nargs="*",
        metavar="SWEEP_ID",
        help=(
            "sweep experiment ids (default: the pinned family, or "
            "sweep_custom when --spec is given)"
        ),
    )
    sweep.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help=(
            "declarative scenario spec (JSON, or TOML on Python >= 3.11) "
            "to sample via the sweep_custom experiment"
        ),
    )
    sweep.add_argument(
        "--samples",
        type=positive_int,
        default=None,
        metavar="N",
        help="scenarios to generate from --spec (default: 8)",
    )
    sweep.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="generator seed for --spec (default: 1)",
    )
    sweep.add_argument(
        "--scale",
        choices=SCALES,
        default="quick",
        help="run-length preset (default: quick)",
    )
    sweep.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the aggregate report as deterministic JSON here",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="print the aggregate report as JSON instead of ASCII tables",
    )
    add_runner_options(sweep)

    return parser


def _reject_unknown(
    ids: t.Sequence[str], available: t.Sequence[str], kind: str
) -> None:
    """Raise one ``ConfigError`` naming any unknown ids and the available
    ones."""
    unknown = [i for i in ids if i not in available]
    if unknown:
        names = ", ".join(repr(i) for i in unknown)
        raise ConfigError(
            f"unknown {kind} {names}; available: {', '.join(available)}"
        )


def _run_grid(
    args: argparse.Namespace,
    ids: t.Sequence[str],
    request: "SweepRequest | None" = None,
) -> "RunSummary":
    """Run ``ids`` for ``run``, ``summary`` and ``sweep``; report the losses.

    ``--fault-plan`` and the sweep ``request`` are installed for this call
    only.  Prints the summary line and one ``FAILED`` line per experiment
    with a point that killed its worker on every attempt or gave up on a
    strip.  Raises ``ConfigError`` for a fault seed without a plan, a
    malformed plan, a plan naming a server some grid cell lacks, or an
    unusable cache directory, before any point runs.
    """
    from .faults import load_fault_plan, using_fault_plan
    from .runner import ExperimentRunner
    from .scenarios import using_sweep

    plan = None
    if args.fault_plan is not None:
        plan = load_fault_plan(args.fault_plan)
        if args.fault_seed is not None:
            plan = plan.with_seed(args.fault_seed)
    elif args.fault_seed is not None:
        raise ConfigError("--fault-seed requires --fault-plan")

    def progress(message: str) -> None:
        print(f"sais-repro: {message}", file=sys.stderr)

    runner = ExperimentRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress if args.progress else None,
    )
    with using_fault_plan(plan), using_sweep(request):
        summary = runner.run_many(ids, scale=args.scale)
    cached = sum(1 for report in summary.reports if report.cached)
    print(
        f"sais-repro: {len(summary.reports)} experiment(s), "
        f"{cached} from cache, {summary.executed_tasks} task(s) executed "
        f"({summary.jobs} worker{'s' if summary.jobs != 1 else ''})",
        file=sys.stderr,
    )
    for report in summary.failed:
        first_line = report.error.splitlines()[0]
        print(
            f"sais-repro: {report.exp_id} FAILED: {first_line}",
            file=sys.stderr,
        )
    return summary


def _list(args: argparse.Namespace) -> int:
    for exp_id in all_experiment_ids():
        print(exp_id)
    return 0


def _trace(args: argparse.Namespace) -> int:
    from .obs.trace_cli import run_trace, run_trace_diff

    if args.experiment == "diff":
        if len(args.inputs) != 2:
            raise ConfigError(
                "trace diff needs exactly two trace files: "
                "sais-repro trace diff A.json B.json"
            )
        return run_trace_diff(
            args.inputs[0], args.inputs[1], out=args.out, top=args.top
        )
    if args.inputs:
        raise ConfigError(
            "positional trace files are only valid with "
            "'sais-repro trace diff'"
        )
    return run_trace(
        args.experiment,
        scale=args.scale,
        out=args.out,
        point=args.point,
        policy=args.policy,
        timeline=args.timeline,
    )


def _summary(args: argparse.Namespace) -> int:
    from .metrics.report import render_table

    summary = _run_grid(args, all_experiment_ids())
    rows = []
    for result in summary.results:
        for key, paper_value in result.paper.items():
            measured = result.measured.get(key, float("nan"))
            rows.append(
                (result.exp_id, key, f"{paper_value:g}", f"{measured:g}")
            )
    print(
        render_table(
            ("experiment", "headline", "paper", "measured"),
            rows,
            title=f"SAIs reproduction summary (scale={args.scale})",
        )
    )
    return 1 if summary.failed else 0


def _run(args: argparse.Namespace) -> int:
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = all_experiment_ids()
    _reject_unknown(ids, all_experiment_ids(), "experiment")
    summary = _run_grid(args, ids)

    if args.json:
        import json

        payload = [result.to_dict() for result in summary.results]
        print(json.dumps(payload, indent=2))
        return 1 if summary.failed else 0
    for index, result in enumerate(summary.results):
        if index:
            print()
        print(result.render())
        if args.plot:
            from .metrics.ascii_plot import plot_result

            print()
            try:
                print(plot_result(result))
            except ReproError as exc:
                print(f"(no chart: {exc})")
    return 1 if summary.failed else 0


def _sweep(args: argparse.Namespace) -> int:
    """``sais-repro sweep``: run sweep experiments, print the aggregate.

    With ``--spec`` the file is loaded, validated, and installed for this
    command as the :class:`~repro.scenarios.SweepRequest` backing the
    ``sweep_custom`` experiment; the pinned family ids need no request.
    Everything downstream is the ordinary runner path, so
    ``--jobs``/``--cache-dir``/``--fault-plan`` compose like they do for
    ``run``.
    """
    from .experiments.sweep import ALL_SWEEP_IDS, CUSTOM_SWEEP_ID, SWEEP_FAMILY
    from .scenarios import SweepRequest, build_report, load_spec

    if args.report is not None:
        ensure_parent_dir(args.report, "--report")
    request = None
    if args.spec is not None:
        request = SweepRequest(
            spec=load_spec(args.spec),
            samples=args.samples if args.samples is not None else 8,
            seed=args.seed if args.seed is not None else 1,
        )
    elif args.samples is not None or args.seed is not None:
        raise ConfigError("--samples/--seed require --spec")

    ids = list(args.experiments)
    if not ids:
        ids = [CUSTOM_SWEEP_ID] if request is not None else list(SWEEP_FAMILY)
    _reject_unknown(ids, ALL_SWEEP_IDS, "sweep experiment")
    summary = _run_grid(args, ids, request)
    if summary.failed:
        return 1
    aggregate = build_report(summary.results)
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(aggregate.to_json())
        except OSError as exc:
            raise ConfigError(f"cannot write {args.report}: {exc}") from exc
        print(f"sais-repro: wrote {args.report}", file=sys.stderr)
    if args.json:
        print(aggregate.to_json(), end="")
    else:
        print(aggregate.render())
    return 0


_COMMANDS: dict[str, t.Callable[[argparse.Namespace], int]] = {
    "list": _list,
    "run": _run,
    "summary": _summary,
    "sweep": _sweep,
    "trace": _trace,
}


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Malformed input to any command ends here: one ``sais-repro:`` line on
    stderr and exit code 2.  Only ``ConfigError`` is caught; any other
    error is a model bug and keeps its traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"sais-repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
