"""The repro.bench subsystem: suite validity, record schema, baseline
selection and the regression gate."""

import json

import pytest

from repro.bench.runner import (
    compare_payloads,
    find_baseline,
    main,
    run_entry,
    write_payload,
)
from repro.bench.suite import bench_entries, entry_by_name


def _payload(rev, created, entries):
    return {
        "schema": 1,
        "rev": rev,
        "created": created,
        "scale": "quick",
        "python": "3.12.0",
        "entries": entries,
        "totals": {
            "wall_time_s": sum(e["wall_time_s"] for e in entries),
            "events_processed": sum(e["events_processed"] for e in entries),
        },
    }


def _entry(name, wall, events):
    return {
        "name": name,
        "title": name,
        "wall_time_s": wall,
        "events_processed": events,
        "events_per_s": events / wall,
        "sim_elapsed_s": 1.0,
        "bandwidth_mb_s": 100.0,
    }


class TestSuite:
    def test_quick_is_a_subset_of_full(self):
        quick = {e.name for e in bench_entries("quick")}
        full = {e.name for e in bench_entries("full")}
        assert quick < full

    def test_entry_names_are_unique(self):
        names = [e.name for e in bench_entries("full")]
        assert len(names) == len(set(names))

    def test_micro_point_is_quick(self):
        assert entry_by_name("micro_read").quick

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown bench scale"):
            bench_entries("huge")

    def test_unknown_entry_rejected(self):
        with pytest.raises(KeyError, match="unknown bench entry"):
            entry_by_name("nope")

    def test_all_configs_validate(self):
        # ClusterConfig validates in __post_init__; building the suite at
        # all proves every pinned point is a legal configuration.
        for entry in bench_entries("full"):
            assert entry.config.n_servers > 0


class TestRunEntry:
    def test_micro_entry_end_to_end(self):
        record, profile_text = run_entry(entry_by_name("micro_read"))
        assert record.events_processed > 0
        assert record.wall_time_s > 0
        assert record.bandwidth_mb_s > 0
        assert record.sim_elapsed_s > 0
        assert profile_text is None

    def test_events_processed_is_deterministic(self):
        first, _ = run_entry(entry_by_name("micro_read"))
        second, _ = run_entry(entry_by_name("micro_read"))
        assert first.events_processed == second.events_processed
        assert first.sim_elapsed_s == second.sim_elapsed_s
        assert first.bandwidth_mb_s == second.bandwidth_mb_s

    def test_profile_captures_hot_functions(self):
        record, profile_text = run_entry(
            entry_by_name("micro_read"), profile=True, profile_top=5
        )
        assert record.events_processed > 0
        assert profile_text is not None
        assert "cumulative" in profile_text

    def test_profiler_overhead_stays_out_of_wall_time(self, monkeypatch):
        """The record times an unprofiled run: a profiler whose
        ``enable()`` alone costs 0.25 s must not show up in it."""
        import cProfile
        import time

        class SlowProfile(cProfile.Profile):
            def enable(self, *args, **kwargs):
                time.sleep(0.25)
                super().enable(*args, **kwargs)

        monkeypatch.setattr(cProfile, "Profile", SlowProfile)
        record, profile_text = run_entry(
            entry_by_name("micro_read"), profile=True
        )
        assert record.wall_time_s < 0.25
        assert profile_text


class TestBaselineSelection:
    def test_newest_by_created_stamp_wins(self, tmp_path):
        old = _payload("aaa1111", "2026-01-01T00:00:00+00:00", [])
        new = _payload("bbb2222", "2026-06-01T00:00:00+00:00", [])
        write_payload(old, tmp_path)
        newest = write_payload(new, tmp_path)
        assert find_baseline(tmp_path) == newest

    def test_exclude_skips_the_file_just_written(self, tmp_path):
        old = write_payload(
            _payload("aaa1111", "2026-01-01T00:00:00+00:00", []), tmp_path
        )
        mine = write_payload(
            _payload("ccc3333", "2026-07-01T00:00:00+00:00", []), tmp_path
        )
        assert find_baseline(tmp_path, exclude=mine) == old

    def test_empty_dir_has_no_baseline(self, tmp_path):
        assert find_baseline(tmp_path) is None

    def test_corrupt_files_are_skipped(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        good = write_payload(
            _payload("aaa1111", "2026-01-01T00:00:00+00:00", []), tmp_path
        )
        assert find_baseline(tmp_path) == good


class TestCompare:
    def test_within_threshold_passes(self):
        base = _payload("base", "t0", [_entry("a", 1.0, 1000)])
        new = _payload("new", "t1", [_entry("a", 1.2, 900)])
        result = compare_payloads(new, base, threshold=0.30)
        assert not result.regressed
        assert result.total_wall_change == pytest.approx(0.2)

    def test_beyond_threshold_regresses(self):
        base = _payload("base", "t0", [_entry("a", 1.0, 1000)])
        new = _payload("new", "t1", [_entry("a", 1.5, 1000)])
        assert compare_payloads(new, base, threshold=0.30).regressed

    def test_events_ratio_reports_the_reduction(self):
        base = _payload("base", "t0", [_entry("a", 1.0, 3000)])
        new = _payload("new", "t1", [_entry("a", 0.4, 1000)])
        result = compare_payloads(new, base)
        assert result.events_ratio == pytest.approx(3.0)

    def test_unknown_record_keys_are_ignored(self):
        # Older committed records carry columns this runner no longer
        # writes; the gate reads only names, wall times and event counts.
        legacy = dict(_entry("a", 1.0, 1000), shards=2, projected_wall_s=0.5)
        base = _payload("base", "t0", [legacy])
        new = _payload("new", "t1", [_entry("a", 1.1, 1000)])
        result = compare_payloads(new, base)
        assert result.total_wall_change == pytest.approx(0.1)
        assert result.events_ratio == pytest.approx(1.0)

    def test_only_shared_entries_are_compared(self):
        base = _payload("base", "t0", [_entry("a", 1.0, 1000)])
        new = _payload(
            "new", "t1", [_entry("a", 1.0, 1000), _entry("b", 99.0, 5)]
        )
        result = compare_payloads(new, base)
        assert [row[0] for row in result.entries] == ["a"]
        assert result.total_wall_change == pytest.approx(0.0)

    def test_committed_trajectory_shows_the_event_cut(self, repo_root):
        """The acceptance bar: the current kernel must process at least 3x
        fewer events than the committed pre-PR baseline on a shared entry.

        Uses the micro point so the check stays test-suite cheap; the full
        quick suite is gated the same way in CI.
        """
        payloads = [
            json.loads(path.read_text())
            for path in repo_root.glob("BENCH_*.json")
        ]
        assert payloads, "committed BENCH_*.json trajectory missing"
        # The *oldest* record is the pre-fast-path kernel; later entries in
        # the trajectory only ever shrink the event count further.
        baseline = min(payloads, key=lambda p: p["created"])
        base_entry = {
            e["name"]: e for e in baseline["entries"]
        }["micro_read"]
        record, _ = run_entry(entry_by_name("micro_read"))
        assert base_entry["events_processed"] >= 3 * record.events_processed


@pytest.fixture
def repo_root(request):
    return request.config.rootpath


class TestMainFlow:
    def _micro_only(self, monkeypatch):
        import repro.bench.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "bench_entries",
            lambda scale="quick": (entry_by_name("micro_read"),),
        )

    def test_writes_payload_and_passes_without_baseline(
        self, tmp_path, monkeypatch
    ):
        self._micro_only(monkeypatch)
        lines = []
        code = main(
            "quick", out_dir=tmp_path, rev="testrev", echo=lines.append
        )
        assert code == 0
        written = tmp_path / "BENCH_testrev.json"
        assert written.exists()
        payload = json.loads(written.read_text())
        assert payload["schema"] == 1
        assert payload["rev"] == "testrev"
        assert [e["name"] for e in payload["entries"]] == ["micro_read"]
        assert any("no baseline" in line for line in lines)

    def test_second_run_compares_against_the_first(
        self, tmp_path, monkeypatch
    ):
        self._micro_only(monkeypatch)
        assert main("quick", out_dir=tmp_path, rev="one", echo=lambda _m: None) == 0
        lines = []
        code = main(
            "quick",
            out_dir=tmp_path,
            rev="two",
            threshold=10.0,  # generous: wall noise must not flake the test
            echo=lines.append,
        )
        assert code == 0
        assert any("vs one" in line for line in lines)

    def test_regression_fails_with_exit_one(self, tmp_path, monkeypatch):
        self._micro_only(monkeypatch)
        fast = _payload(
            "impossible",
            "2026-01-01T00:00:00+00:00",
            [_entry("micro_read", 1e-9, 1)],
        )
        write_payload(fast, tmp_path)
        lines = []
        code = main(
            "quick", out_dir=tmp_path, rev="slownow", echo=lines.append
        )
        assert code == 1
        assert any("REGRESSION" in line for line in lines)
