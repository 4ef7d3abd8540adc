"""The repository benchmark: what a ``sais-repro`` user waits for, end to
end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 30 --trace 0

Every workload invocation starts a fresh interpreter (``hooks.py``) with
its own empty result cache under ``.perfbench/`` in the checkout, and the
workload repeats in a closed loop until ``--seconds`` have passed.  The
last line of standard output is one JSON object holding the end-to-end
metrics (``--trace 0``, medians over the loop) or the per-layer metrics
(``--trace 1``).  ``perfbench/README.md`` describes the workloads, the
metrics and the baselines.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import typing as t

from hooks import COUNTERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOOKS = ROOT / "perfbench" / "hooks.py"
GOLDENS = ROOT / "tests" / "experiments" / "goldens"
SPEC = ROOT / "examples" / "specs" / "heterogeneous.json"
SCRATCH = ROOT / ".perfbench"
MIB = 1 << 20

PAPER_FIGS = (
    "fig5_bandwidth_3g",
    "fig6_missrate_1g",
    "fig7_missrate_3g",
    "fig8_cpuutil_1g",
    "fig9_cpuutil_3g",
    "fig10_unhalted_1g",
    "fig11_unhalted_3g",
    "fig12_multiclient",
    "fig14_memsim",
    "sec3_model",
    "sec5c_bandwidth_1g",
)
RESILIENCE = ("resilience_loss_sweep", "resilience_straggler_sweep")
SWEEP_SAMPLES = 96
#: Scenario generator seed of sweep_rerun.  It is pinned rather than
#: taken from ``--seed``: across five seeds the draw alone moved wall_s
#: by 10% and sim_mib_per_s by 25% (IQR over median), wider than any
#: regression bound could be.
SWEEP_SEED = 1

WORKLOADS = ("paper_figs", "resilience", "sweep_rerun")

#: A timed run measures at least this many iterations of its workload.
MIN_ITERATIONS = 3
#: Untraced iterations a traced run measures beside its traced one.
TRACE_BASELINE_ITERATIONS = 2
#: Fresh ``import repro.cli`` timings per traced run.
IMPORT_SAMPLES = 5
#: An invocation still running after this long is killed and fails.
INVOCATION_TIMEOUT_S = 60.0

#: Layers whose profiled self time is reported on its own; the other
#: ``repro`` layers (cluster, config, experiments, ...) sum into
#: ``other.self_s``.
LAYERS = (
    "des",
    "builtins",
    "net",
    "faults",
    "rng",
    "hw",
    "kernel",
    "pfs",
    "core",
    "memsim",
    "metrics",
    "workloads",
    "stdlib",
)

#: Host-probe time that defines the reference host speed.  A timed run
#: reports its timings scaled by PROBE_REFERENCE_S / (its median probe
#: time) and its rate by the inverse: on a shared host the speed drifts
#: by up to 30% over minutes, and the probe tracks that drift.
PROBE_REFERENCE_S = 0.1
#: How each end-to-end metric scales with host slowness.
HOST_SCALING = {"setup_s": 1, "wall_s": 1, "cpu_s": 1, "sim_mib_per_s": -1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "sim_mib_per_s": "MiB/s",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "profile.total_s": "s",
    "des.us_per_event": "us",
    **{metric: "count" for metric in COUNTERS},
    "net.fastpath_frac": "ratio",
    "cluster.build_s": "s",
    "cluster.run_s": "s",
    "cluster.sims": "count",
    "runner.plan_s": "s",
    "runner.tasks": "count",
    "runner.dedup_frac": "ratio",
    "runner.pool_efficiency": "ratio",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_hit_frac": "ratio",
    "scenarios.generate_s": "s",
    "experiments.assemble_s": "s",
    "cli.import_s": "s",
    "host.probe_s": "s",
    "trace.overhead_frac": "ratio",
}


def invocations(workload: str, cache_dir: pathlib.Path) -> list[list[str]]:
    """The ``sais-repro`` argument lists one iteration of a workload runs.

    Every workload runs serially.  On two workers the wall time of
    sweep_rerun depends on the host granting both CPUs at once: over ten
    runs its IQR reached 23% of the median while its CPU time stayed
    within 5%.
    """
    common = ["--jobs", "1", "--cache-dir", str(cache_dir)]
    if workload == "paper_figs":
        return [["run", *PAPER_FIGS, "--scale", "quick", "--json", *common]]
    if workload == "resilience":
        return [["run", *RESILIENCE, "--scale", "default", "--json", *common]]
    sweep = [
        "sweep",
        "--spec",
        str(SPEC),
        "--samples",
        str(SWEEP_SAMPLES),
        "--seed",
        str(SWEEP_SEED),
        "--json",
        *common,
    ]
    # The same invocation twice: into the empty cache, then all hits.
    return [sweep, sweep]


def child_env() -> dict[str, str]:
    """The environment of every invocation: this checkout's sources and no
    inherited ``REPRO_*`` setting (cache directory, shards, wire path)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


@dataclasses.dataclass
class Invocation:
    """One ``sais-repro`` process as its user sees it, plus its hook records."""

    returncode: int
    wall_s: float
    #: User plus system CPU of the process and every worker it reaped.
    cpu_s: float
    #: Largest resident set of the process or any worker it reaped.
    rss_mib: float
    #: Seconds from launch until the first point task started, or None.
    setup_s: float | None
    stdout: str
    records: list[dict[str, t.Any]]

    def count(self, name: str) -> float:
        return sum(record["counts"].get(name, 0) for record in self.records)


def run_invocation(
    argv: list[str], workdir: pathlib.Path, traced: bool
) -> Invocation:
    """Run ``sais-repro argv`` in a fresh interpreter and wait for it.

    The interpreter leads its own session, so a timeout or a leftover
    worker is ended together with it; ``os.wait4`` returns its resource
    usage including every pool worker it reaped.
    """
    records_dir = workdir / "records"
    records_dir.mkdir(parents=True)
    command = [
        sys.executable,
        str(HOOKS),
        str(records_dir),
        "1" if traced else "0",
        "--",
        *argv,
    ]
    with open(workdir / "stdout", "w+b") as out, open(
        workdir / "stderr", "w+b"
    ) as err:
        launched = time.monotonic()
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid)
        wall_s = time.monotonic() - launched
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        tail = "\n".join(stderr.splitlines()[-5:])
        print(
            f"perfbench: sais-repro {argv[0]} exited {proc.returncode}:\n{tail}",
            file=sys.stderr,
        )
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(records_dir.glob("*.json"))
    ]
    starts = [
        record["first_task_at"]
        for record in records
        if record["first_task_at"] is not None
    ]
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        setup_s=min(starts) - launched if starts else None,
        stdout=stdout,
        records=records,
    )


def _results_by_id(invocation: Invocation) -> dict[str, t.Any]:
    """``run --json`` output keyed by experiment id; empty if it failed."""
    if invocation.returncode != 0:
        return {}
    try:
        results = json.loads(invocation.stdout)
        return {result["exp_id"]: result for result in results}
    except (ValueError, TypeError, KeyError):
        return {}


def _golden(exp_id: str) -> t.Any:
    path = GOLDENS / f"{exp_id}.quick.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def verify(
    workload: str, runs: list[Invocation], reference: dict[str, t.Any]
) -> list[bool]:
    """One verdict per result the iteration attempted.

    ``reference`` holds the first result of this benchmark run for each
    result that has no committed golden; later iterations must equal it.
    """
    if workload == "paper_figs":
        (run,) = runs
        results = _results_by_id(run)
        return [
            exp_id in results and results[exp_id] == _golden(exp_id)
            for exp_id in PAPER_FIGS
        ]
    if workload == "resilience":
        (run,) = runs
        results = _results_by_id(run)
        complete = run.count("short_sims") == 0
        verdicts = []
        for exp_id in RESILIENCE:
            if exp_id in results:
                reference.setdefault(exp_id, results[exp_id])
            verdicts.append(
                complete
                and exp_id in results
                and results[exp_id] == reference[exp_id]
            )
        return verdicts
    cold, warm = runs
    cold_ok = (
        cold.returncode == 0
        and cold.count("short_sims") == 0
        and cold.count("tasks") > 0
    )
    if cold_ok:
        reference.setdefault("sweep", cold.stdout)
    return [
        cold_ok and cold.stdout == reference["sweep"],
        # The warm pass is all cache hits and prints the same bytes.
        cold_ok
        and warm.returncode == 0
        and warm.count("tasks") == 0
        and warm.stdout == cold.stdout,
    ]


@dataclasses.dataclass
class Iteration:
    """One closed-loop iteration of a workload."""

    runs: list[Invocation]
    results: list[bool]
    timers: dict[str, list[float]]
    counts: dict[str, float]
    layers: dict[str, float]
    profile_s: float

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(run.cpu_s for run in self.runs)

    @property
    def rss_mib(self) -> float:
        return max(run.rss_mib for run in self.runs)

    @property
    def setup_s(self) -> float:
        first = self.runs[0]
        return first.setup_s if first.setup_s is not None else first.wall_s

    @property
    def sim_mib_per_s(self) -> float:
        moved = self.counts.get("bytes_moved", 0) / MIB
        return moved / max(self.wall_s - self.setup_s, 1e-9)

    def timer(self, name: str) -> float:
        return self.timers.get(name, [0.0, 0])[0]

    def calls(self, name: str) -> int:
        return int(self.timers.get(name, [0.0, 0])[1])


class Session:
    """Runs iterations of one workload and checks that they agree."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.reference: dict[str, t.Any] = {}
        self.signature: dict[str, float] | None = None
        self.problems: list[str] = []
        SCRATCH.mkdir(exist_ok=True)

    def iterate(self, traced: bool) -> Iteration:
        workdir = pathlib.Path(
            tempfile.mkdtemp(prefix=f"{self.workload}-", dir=SCRATCH)
        )
        try:
            # A fresh, empty result cache for every iteration.
            argvs = invocations(self.workload, workdir / "cache")
            runs = [
                run_invocation(argv, workdir / f"pass{index}", traced)
                for index, argv in enumerate(argvs)
            ]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        timers: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        layers: dict[str, float] = {}
        profile_s = 0.0
        for run in runs:
            for record in run.records:
                for name, (seconds, calls) in record["timers"].items():
                    slot = timers.setdefault(name, [0.0, 0])
                    slot[0] += seconds
                    slot[1] += calls
                for name, value in record["counts"].items():
                    counts[name] = counts.get(name, 0) + value
                for name, seconds in record.get("layers", {}).items():
                    layers[name] = layers.get(name, 0.0) + seconds
                profile_s += record.get("profile_s", 0.0)
        iteration = Iteration(
            runs=runs,
            results=verify(self.workload, runs, self.reference),
            timers=timers,
            counts=counts,
            layers=layers,
            profile_s=profile_s,
        )
        self._check(iteration)
        return iteration

    def _check(self, iteration: Iteration) -> None:
        signature = {
            name: iteration.counts.get(name, 0)
            for name in ("des.events", "tasks", "sims")
        }
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            self.problems.append(
                f"exact counts moved between iterations: {self.signature} "
                f"then {signature}"
            )
        if iteration.calls("task") != iteration.counts.get("tasks", 0):
            self.problems.append(
                f"the hooks saw {iteration.calls('task')} point tasks but the "
                f"runner executed {iteration.counts.get('tasks', 0)}; pool "
                "workers must inherit the hooks"
            )


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop, timed beside every iteration so
    that a host-wide speed shift can be told apart from a code change."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def import_time() -> float:
    """Seconds a fresh interpreter spends in ``import repro.cli``."""
    code = (
        "import time; start = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def _median(values: t.Iterable[float]) -> float:
    return statistics.median(list(values))


def end_to_end_samples(iterations: list[Iteration]) -> dict[str, list[float]]:
    """Per-iteration values of every end-to-end timing and size."""
    return {
        "setup_s": [it.setup_s for it in iterations],
        "wall_s": [it.wall_s for it in iterations],
        "cpu_s": [it.cpu_s for it in iterations],
        "peak_rss_mb": [it.rss_mib for it in iterations],
        "sim_mib_per_s": [it.sim_mib_per_s for it in iterations],
    }


def end_to_end(
    iterations: list[Iteration], probes: list[float]
) -> dict[str, float]:
    """Medians over the run at the reference host speed, and ``ok_frac``."""
    slowness = _median(probes) / PROBE_REFERENCE_S
    metrics = {
        name: _median(values) / slowness ** HOST_SCALING.get(name, 0)
        for name, values in end_to_end_samples(iterations).items()
    }
    verdicts = [ok for it in iterations for ok in it.results]
    metrics["ok_frac"] = sum(verdicts) / len(verdicts)
    return metrics


def per_layer(
    baseline: list[Iteration],
    traced: Iteration,
    imports: list[float],
    probes: list[float],
) -> dict[str, float]:
    """Profile shares and exact counts from the traced iteration; timers
    from the untraced ones, which the profiler does not inflate."""
    counts = traced.counts
    layers = traced.layers
    total = sum(layers.values())

    def timer(name: str) -> float:
        return _median(it.timer(name) for it in baseline)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    metrics["other.self_s"] = total - sum(metrics.values())
    metrics["profile.total_s"] = total
    metrics["des.us_per_event"] = ratio(
        timer("sim_run") * 1e6, counts.get("des.events", 0)
    )
    metrics.update({metric: counts.get(metric, 0) for metric in COUNTERS})
    metrics["net.fastpath_frac"] = ratio(
        counts.get("fastpath_sims", 0), counts.get("sims", 0)
    )
    metrics["cluster.build_s"] = timer("sim_build")
    metrics["cluster.run_s"] = timer("sim_run")
    metrics["cluster.sims"] = counts.get("sims", 0)
    metrics["runner.plan_s"] = timer("plan")
    metrics["runner.tasks"] = counts.get("tasks", 0)
    metrics["runner.dedup_frac"] = ratio(
        counts.get("tasks", 0), counts.get("points", 0)
    )
    metrics["runner.pool_efficiency"] = _median(
        ratio(it.timer("task"), it.counts.get("pool_capacity_s", 0))
        for it in baseline
    )
    metrics["runner.cache_get_s"] = timer("cache_get")
    metrics["runner.cache_put_s"] = timer("cache_put")
    metrics["runner.cache_hit_frac"] = ratio(
        counts.get("cache_hits", 0), traced.calls("cache_get")
    )
    metrics["scenarios.generate_s"] = timer("generate")
    metrics["experiments.assemble_s"] = timer("assemble")
    metrics["cli.import_s"] = _median(imports)
    metrics["host.probe_s"] = _median(probes)
    metrics["trace.overhead_frac"] = (
        traced.wall_s / _median(it.wall_s for it in baseline) - 1
    )
    return metrics


def _describe(name: str, values: list[float], unit: str) -> str:
    return (
        f"  {name:<24} median {statistics.median(values):.6g} {unit}  "
        f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
    )


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        required=True,
        help="run label; every workload's inputs are fixed (see README.md)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="how long a timed run repeats its workload (at least 3 times)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report per-layer metrics from a profiled iteration",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"perfbench: no sais-repro sources under {ROOT / 'src'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    session = Session(args.workload)
    import_time()  # compile bytecode before anything is timed
    # A traced run measures a fixed amount of work: a few untraced
    # iterations as its baseline, then the traced one.
    deadline = time.monotonic() + args.seconds
    target = TRACE_BASELINE_ITERATIONS if args.trace else MIN_ITERATIONS
    iterations: list[Iteration] = []
    probes = [host_probe()]
    while len(iterations) < target or (
        not args.trace and time.monotonic() < deadline
    ):
        iterations.append(session.iterate(traced=False))
        probes.append(host_probe())
    print(
        f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{len(iterations)} untraced iteration(s)"
    )

    measured = list(iterations)
    if args.trace:
        traced = session.iterate(traced=True)
        measured.append(traced)
        imports = [import_time() for _ in range(IMPORT_SAMPLES)]
        metrics = per_layer(iterations, traced, imports, probes)
        units = PER_LAYER_UNITS
        for name, unit in units.items():
            print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    else:
        print("  as measured:")
        for name, values in end_to_end_samples(iterations).items():
            print(_describe(name, values, END_TO_END_UNITS[name]))
        print(_describe("host.probe_s", probes, "s"))
        metrics = end_to_end(iterations, probes)
        units = END_TO_END_UNITS
        print(f"  reported at reference host speed ({PROBE_REFERENCE_S} s probe):")
        for name, unit in units.items():
            print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    for problem in session.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    verdicts = [ok for it in measured for ok in it.results]
    failed = verdicts.count(False)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not session.problems,
                "attempted": len(verdicts),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
