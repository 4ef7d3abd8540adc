"""Golden-file snapshots of every experiment's ``to_dict()`` at quick scale.

The cache key — and therefore every consumer of ``sais-repro --json`` —
depends on the result schema staying put.  These snapshots catch
accidental drift in headers, row shapes, paper/measured keys and the
values themselves.  The results come from the runner, as ``sais-repro
run`` produces them.  After an *intentional* change, regenerate with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden_snapshots.py --update-goldens
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import all_experiment_ids
from repro.runner import ExperimentRunner

from .conftest import GOLDENS_DIR, encode_golden, golden_path


@pytest.mark.parametrize("exp_id", all_experiment_ids())
def test_quick_scale_snapshot(exp_id, update_goldens, quick_run):
    payload = quick_run.results[exp_id].to_dict()
    path = golden_path(exp_id, "quick")
    if update_goldens:
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(encode_golden(payload), encoding="utf-8")
        pytest.skip(f"golden updated: {path.name}")
    assert path.exists(), (
        f"no golden for {exp_id!r} — run pytest with --update-goldens "
        "(new experiments must check in their snapshot)"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert payload == golden, (
        f"{exp_id} drifted from its golden snapshot; if the change is "
        "intentional, re-run with --update-goldens and review the diff"
    )


@pytest.fixture(scope="module")
def sharded_run(request, tmp_path_factory):
    """Every experiment at quick scale, in one runner call made under a
    leftover sharding request: ``(shards, server_shards)``, a transport
    and a round-trace path."""
    shards, server_shards = request.param
    rounds = tmp_path_factory.mktemp("sharded") / "rounds.json"
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_SHARDS", str(shards))
        env.setenv("REPRO_SHARD_TRANSPORT", "inproc")
        env.setenv("REPRO_TRACE_ROUNDS", str(rounds))
        env.setenv("REPRO_SERVER_SHARDS", str(server_shards))
        summary = ExperimentRunner(use_cache=False).run_many(
            all_experiment_ids(), scale="quick"
        )
    results = {report.exp_id: report.result for report in summary.reports}
    return request.param, results, rounds


@pytest.mark.parametrize(
    "sharded_run", [(4, 2)], ids=["server-split"], indirect=True
)
@pytest.mark.parametrize("exp_id", all_experiment_ids())
def test_quick_scale_snapshot_sharded(exp_id, sharded_run):
    """A sharding request left in the environment is inert.

    Within-run sharding is gone (DESIGN.md §10), and with it every
    reader of its environment variables.  A shell or script that still
    exports the server-split request, with a transport and a round
    trace, must get the single-calendar bytes: every quick-scale golden
    stays byte-identical and no round trace is written."""
    (shards, server_shards), results, rounds = sharded_run
    path = golden_path(exp_id, "quick")
    payload = results[exp_id].to_dict()
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert payload == golden, (
        f"{exp_id} diverged from its golden under a leftover sharding "
        f"request (shards {shards}, server shards {server_shards})"
    )
    assert not rounds.exists()


@pytest.mark.parametrize("exp_id", all_experiment_ids())
def test_golden_schema_shape(exp_id):
    """Independent of values: goldens carry the schema the cache relies on."""
    path = golden_path(exp_id, "quick")
    if not path.exists():
        pytest.skip("golden not generated yet")
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert set(golden) == {
        "exp_id", "title", "headers", "rows", "paper", "measured", "notes",
    }
    assert golden["exp_id"] == exp_id
    assert golden["headers"]
    for row in golden["rows"]:
        assert len(row) == len(golden["headers"])
    assert set(golden["paper"]).issubset(set(golden["measured"]))
