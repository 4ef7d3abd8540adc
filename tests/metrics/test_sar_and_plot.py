"""Tests for the ASCII plotting helpers."""

import pytest

from repro.errors import ReproError
from repro.metrics.ascii_plot import bar_chart, grouped_bars, plot_result


class TestAsciiPlot:
    def test_bar_chart_renders_each_label(self):
        chart = bar_chart(["a", "bb"], [1.0, 2.0], title="T")
        assert chart.startswith("T")
        assert "a" in chart and "bb" in chart
        assert chart.count("\n") == 2

    def test_largest_bar_is_longest(self):
        chart = bar_chart(["x", "y"], [1.0, 4.0]).splitlines()
        assert chart[1].count("█") > chart[0].count("█")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            bar_chart([], [])

    def test_grouped_bars(self):
        chart = grouped_bars(
            ["p1", "p2"],
            {"irq": [1.0, 2.0], "sais": [1.5, 2.5]},
        )
        assert chart.count("irq") == 2
        assert chart.count("sais") == 2

    def test_grouped_series_length_checked(self):
        with pytest.raises(ReproError):
            grouped_bars(["a"], {"s": [1.0, 2.0]})

    def test_plot_result_picks_measurement_pair(self):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult(
            exp_id="x",
            title="T",
            headers=("servers", "irq MB/s", "SAIs MB/s", "speed-up"),
            rows=((8, "100.0", "120.0", "+20.0%"), (16, "110.0", "140.0", "+27%")),
            paper={},
            measured={},
        )
        chart = plot_result(result)
        assert "irq MB/s" in chart and "SAIs MB/s" in chart
        assert "120" in chart

    def test_plot_result_empty_rows_rejected(self):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult(
            exp_id="x", title="T", headers=("a",), rows=(), paper={}, measured={}
        )
        with pytest.raises(ReproError):
            plot_result(result)
