"""Self-tests of the benchmark's own code.

Run from the root of a checkout (about half a minute; the smoke tests run
every workload once)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import re

import pytest

import hooks
import run

PACKAGE_DIR = os.path.join(os.sep, "checkout", "src", "repro")


@pytest.mark.parametrize(
    ("filename", "layer"),
    [
        (os.path.join(PACKAGE_DIR, "des", "environment.py"), "des"),
        (os.path.join(PACKAGE_DIR, "net", "fastpath.py"), "net"),
        (os.path.join(PACKAGE_DIR, "rng.py"), "rng"),
        ("~", "builtins"),
        (os.path.join(os.sep, "usr", "lib", "python3", "heapq.py"), "stdlib"),
        ("<string>", "stdlib"),
        (PACKAGE_DIR + "_copy" + os.sep + "rng.py", "stdlib"),
    ],
)
def test_profile_rows_map_to_layers(filename, layer):
    assert hooks.layer_of(filename, PACKAGE_DIR) == layer


def test_layer_self_times_sum_to_the_profiled_total(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    import repro.units

    profile = cProfile.Profile()
    profile.enable()
    for size in range(2000):
        repro.units.format_size(size * 4096)
    sorted(range(1000), key=lambda x: -x)
    profile.disable()
    rows = hooks.profile_rows(profile)
    layers = hooks.fold_layers(rows, os.path.dirname(repro.units.__file__))
    assert {"units", "builtins", "stdlib"} <= set(layers)
    assert math.isclose(
        sum(layers.values()), sum(self_s for _, self_s in rows), rel_tol=1e-9
    )


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
        for name in units:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_verification_rejects_drifted_results():
    golden = run._golden("fig5_bandwidth_3g")
    drifted = dict(golden, measured={**golden["measured"], "extra": 1.0})
    fig5 = run.Invocation(0, 1.0, 1.0, 1.0, 0.1, json.dumps([drifted]), [])
    assert not any(run.verify("paper_figs", [fig5], {}))

    cold = run.Invocation(0, 1.0, 1.0, 1.0, 0.1, "report", [
        {"counts": {"tasks": 96, "short_sims": 0}}
    ])
    warm = run.Invocation(0, 1.0, 1.0, 1.0, None, "other", [
        {"counts": {"tasks": 0}}
    ])
    assert run.verify("sweep_rerun", [cold, warm], {}) == [True, False]


def test_end_to_end_reports_at_reference_host_speed():
    invocation = run.Invocation(0, 4.0, 3.0, 50.0, 1.0, "", [])
    iteration = run.Iteration(
        [invocation], [True, True], {}, {"bytes_moved": 300 * run.MIB}, {}, 0.0
    )
    # A host twice as slow as the reference halves every timing and
    # doubles the rate; sizes and verdicts stay as measured.
    metrics = run.end_to_end([iteration], [2 * run.PROBE_REFERENCE_S])
    assert metrics == {
        "setup_s": 0.5,
        "wall_s": 2.0,
        "cpu_s": 1.5,
        "peak_rss_mb": 50.0,
        "sim_mib_per_s": 200.0,
        "ok_frac": 1.0,
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_iteration_passes_verification(workload):
    session = run.Session(workload)
    iteration = session.iterate(traced=False)
    assert iteration.results and all(iteration.results)
    assert not session.problems
    assert iteration.counts["sims"] > 0
    assert 0 < iteration.setup_s < iteration.wall_s


def test_traced_iteration_accounts_for_all_profiled_time():
    session = run.Session("resilience")
    untraced = session.iterate(traced=False)
    traced = session.iterate(traced=True)
    # Session checks that the exact counts equal the untraced ones.
    assert all(traced.results) and not session.problems
    assert math.isclose(
        sum(traced.layers.values()), traced.profile_s, rel_tol=1e-9
    )
    metrics = run.per_layer([untraced], traced, [0.3], [0.1])
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    shares = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert math.isclose(
        shares + metrics["other.self_s"], metrics["profile.total_s"]
    )
