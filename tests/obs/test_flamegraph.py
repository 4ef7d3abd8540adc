"""Tests for the collapsed-stack sampling profiler (repro.obs.flamegraph).

Wall-clock sampling is explicitly outside the simulator's determinism
guarantees — these tests assert structure (folded format, frame order),
not exact counts.
"""

import time

from repro.obs.flamegraph import (
    StackSampler,
    collapse_stacks,
    folded_lines,
    profile_collapsed,
)


def _busy_leaf(deadline):
    while time.perf_counter() < deadline:
        sum(range(200))


def _busy_root(duration=0.15):
    _busy_leaf(time.perf_counter() + duration)


class TestCollapseStacks:
    def test_counts_duplicates(self):
        samples = [("a", "b"), ("a", "b"), ("a", "c")]
        assert collapse_stacks(samples) == {"a;b": 2, "a;c": 1}

    def test_empty(self):
        assert collapse_stacks([]) == {}

    def test_single_frame_stacks(self):
        samples = [("main",), ("main",), ("idle",)]
        folded = collapse_stacks(samples)
        assert folded == {"main": 2, "idle": 1}
        assert folded_lines(folded) == ["main 2", "idle 1"]


class TestFoldedLines:
    def test_empty_sample_set_folds_to_nothing(self):
        assert folded_lines(collapse_stacks([])) == []

    def test_order_is_count_then_stack_text(self):
        folded = {"b;z": 3, "a;z": 3, "c": 9}
        assert folded_lines(folded) == ["c 9", "a;z 3", "b;z 3"]

    def test_identical_sample_multisets_fold_identically(self):
        """Folded output depends on the sample multiset, never on the
        order the sampler happened to capture stacks in."""
        run_a = [("a", "b"), ("a",), ("a", "b"), ("c",)]
        run_b = [("c",), ("a", "b"), ("a", "b"), ("a",)]
        assert folded_lines(collapse_stacks(run_a)) == folded_lines(
            collapse_stacks(run_b)
        )


class TestStackSampler:
    def test_samples_running_code(self):
        with StackSampler(interval=0.001) as sampler:
            _busy_root()
        assert sampler.samples
        flat = ";".join(";".join(s) for s in sampler.samples)
        assert "_busy_leaf" in flat

    def test_stacks_are_root_first(self):
        with StackSampler(interval=0.001) as sampler:
            _busy_root()
        hit = next(
            s for s in sampler.samples if any("_busy_leaf" in f for f in s)
        )
        root_idx = next(
            i for i, f in enumerate(hit) if "_busy_root" in f
        )
        leaf_idx = next(
            i for i, f in enumerate(hit) if "_busy_leaf" in f
        )
        assert root_idx < leaf_idx


class TestProfileCollapsed:
    def test_returns_result_and_folded_lines(self):
        result, lines = profile_collapsed(
            lambda: (_busy_root(), 42)[1], interval=0.001
        )
        assert result == 42
        assert lines
        for line in lines:
            stack, _space, count = line.rpartition(" ")
            assert stack
            assert count.isdigit()
        assert any("_busy_leaf" in line for line in lines)

    def test_strip_prefix(self):
        _result, lines = profile_collapsed(
            _busy_root, interval=0.001, strip_prefix="tests."
        )
        assert not any(line.startswith("tests.") for line in lines)


class TestBenchIntegration:
    def test_profile_entry_collapsed_runs_a_real_entry(self):
        from repro.bench import bench_entries
        from repro.bench.runner import profile_entry_collapsed

        entry = next(
            e for e in bench_entries("quick") if e.name == "micro_read"
        )
        lines = profile_entry_collapsed(entry, interval=0.001)
        # A DES run must show the kernel in its profile.
        assert any("des" in line for line in lines)
