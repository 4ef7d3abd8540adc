"""Tests for ``sais-repro bench --history`` (repro.bench.history)."""

import json

from repro.bench.history import (
    load_history,
    main,
    render_history,
    sparkline,
)


def _payload(rev, created, wall, events):
    return {
        "schema": 1,
        "rev": rev,
        "created": created,
        "scale": "quick",
        "python": "3.11",
        "entries": [
            {
                "name": "micro_read",
                "wall_time_s": wall,
                "events_processed": events,
            }
        ],
        "totals": {"wall_time_s": wall, "events_processed": events},
    }


def _write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestLoadHistory:
    def test_ordered_by_created_not_filename(self, tmp_path):
        # Filename order (aaa < zzz) disagrees with created order.
        _write(tmp_path, "BENCH_aaa.json",
               _payload("aaa", "2026-02-01T00:00:00", 2.0, 200))
        _write(tmp_path, "BENCH_zzz.json",
               _payload("zzz", "2026-01-01T00:00:00", 1.0, 100))
        history = load_history(tmp_path)
        assert [p["rev"] for p in history] == ["zzz", "aaa"]

    def test_garbage_files_skipped(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_list.json").write_text("[1, 2]")
        _write(tmp_path, "BENCH_ok.json",
               _payload("ok", "2026-01-01T00:00:00", 1.0, 100))
        assert [p["rev"] for p in load_history(tmp_path)] == ["ok"]

    def test_empty_dir(self, tmp_path):
        assert load_history(tmp_path) == []

    def test_each_skipped_file_warns_once(self, tmp_path):
        (tmp_path / "BENCH_empty.json").write_text("")
        (tmp_path / "BENCH_truncated.json").write_text('{"totals": {"wal')
        (tmp_path / "BENCH_no_totals.json").write_text('{"rev": "x"}')
        (tmp_path / "BENCH_str_totals.json").write_text(
            '{"totals": "not a dict"}'
        )
        (tmp_path / "BENCH_nan_totals.json").write_text(
            '{"totals": {"wall_time_s": "fast", "events_processed": 7}}'
        )
        _write(tmp_path, "BENCH_ok.json",
               _payload("ok", "2026-01-01T00:00:00", 1.0, 100))
        warnings: list[str] = []
        history = load_history(tmp_path, warn=warnings.append)
        assert [p["rev"] for p in history] == ["ok"]
        assert len(warnings) == 5
        assert all(w.startswith("bench: skipping BENCH_") for w in warnings)
        reasons = "\n".join(warnings)
        assert "empty file" in reasons
        assert "malformed JSON" in reasons
        assert "no 'totals'" in reasons
        assert "non-numeric 'totals'" in reasons

    def test_survivors_still_render(self, tmp_path):
        (tmp_path / "BENCH_dead.json").write_text("\x00\x00")
        _write(tmp_path, "BENCH_ok.json",
               _payload("ok", "2026-01-01T00:00:00", 1.0, 100))
        text = render_history(load_history(tmp_path))
        assert "bench history (1 snapshots)" in text


class TestRenderHistory:
    def test_table_and_sparklines(self, tmp_path):
        _write(tmp_path, "BENCH_a.json",
               _payload("old", "2026-01-01T00:00:00", 2.0, 200))
        _write(tmp_path, "BENCH_b.json",
               _payload("new", "2026-02-01T00:00:00", 1.0, 100))
        text = render_history(load_history(tmp_path))
        assert "old" in text and "new" in text
        assert "wall time" in text
        assert "-50.0%" in text  # 2.0s -> 1.0s
        assert any(tick in text for tick in "▁▂▃▄▅▆▇█")

    def test_empty_history_message(self):
        assert "no BENCH_" in render_history([])


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(tmp_path) == 1  # nothing to show
        _write(tmp_path, "BENCH_a.json",
               _payload("a", "2026-01-01T00:00:00", 1.0, 100))
        assert main(tmp_path) == 0
        assert "bench history" in capsys.readouterr().out

    def test_cli_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        _write(tmp_path, "BENCH_a.json",
               _payload("a", "2026-01-01T00:00:00", 1.0, 100))
        code = cli_main(["bench", "--history", "--out", str(tmp_path)])
        assert code == 0
        assert "bench history" in capsys.readouterr().out

    def test_history_against_committed_files(self, capsys):
        # The repo root carries real BENCH_*.json trajectory files.
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        if not list(repo_root.glob("BENCH_*.json")):
            import pytest

            pytest.skip("no committed bench files")
        assert main(repo_root) == 0
        out = capsys.readouterr().out
        for path in repo_root.glob("BENCH_*.json"):
            assert json.loads(path.read_text())["rev"] in out
