"""The distribution language: sampling and parsing."""

import pytest

from repro.errors import ConfigError
from repro.scenarios import Choice, Const, Uniform, UniformInt, parse_dist
from repro.units import parse_size


class TestSampling:
    def test_const_ignores_the_draw(self):
        dist = Const(7)
        assert dist.sample(0.0) == dist.sample(0.999) == 7
        assert dist.support() == (7,)

    def test_choice_uniform_partitions_the_unit_interval(self):
        dist = Choice(values=("a", "b"), weights=(1.0, 1.0))
        assert dist.sample(0.0) == "a"
        assert dist.sample(0.49) == "a"
        assert dist.sample(0.51) == "b"
        assert dist.sample(0.999) == "b"

    def test_choice_weights_skew_the_partition(self):
        dist = Choice(values=("a", "b"), weights=(3.0, 1.0))
        assert dist.sample(0.74) == "a"
        assert dist.sample(0.76) == "b"

    def test_uniform_spans_lo_to_hi(self):
        dist = Uniform(lo=10.0, hi=20.0)
        assert dist.sample(0.0) == 10.0
        assert dist.sample(0.5) == 15.0
        assert dist.bounds() == (10.0, 20.0)

    def test_uniform_int_is_inclusive_both_ends(self):
        dist = UniformInt(lo=4, hi=6)
        seen = {dist.sample(u / 100) for u in range(100)}
        assert seen == {4, 5, 6}
        assert dist.sample(0.999999) == 6

    def test_invalid_bounds_raise(self):
        with pytest.raises(ConfigError):
            Uniform(lo=5.0, hi=1.0)
        with pytest.raises(ConfigError):
            Choice(values=(), weights=())
        with pytest.raises(ConfigError):
            Choice(values=(1, 2), weights=(1.0,))
        with pytest.raises(ConfigError):
            Choice(values=(1,), weights=(-1.0,))


class TestParsing:
    def test_scalar_becomes_const(self):
        assert parse_dist("f", 42) == Const(42)

    def test_atom_applies_to_every_scalar(self):
        dist = parse_dist("f", {"choice": ["128K", "1M"]}, parse_size)
        assert dist.values == (parse_size("128K"), parse_size("1M"))

    def test_choice_without_weights_is_uniform(self):
        dist = parse_dist("f", {"choice": [1, 2, 3]})
        assert dist.weights == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "raw",
        [
            {"uniform": [1, 2], "choice": [3]},  # two kinds
            {},  # no kind
            {"uniform": [1, 2], "wat": 3},  # unknown key
            {"uniform": [1, 2], "weights": [1]},  # weights off choice
            {"uniform": [1]},  # not a pair
            {"uniform_int": [1.5, 3]},  # fractional int bounds
            {"choice": []},  # empty choice
            {"choice": [1], "weights": "heavy"},  # non-list weights
        ],
    )
    def test_malformed_objects_raise_config_error(self, raw):
        with pytest.raises(ConfigError) as excinfo:
            parse_dist("myfield", raw)
        assert "myfield" in str(excinfo.value)

    def test_parse_is_identity_on_distributions(self):
        dist = Uniform(lo=1.0, hi=2.0)
        assert parse_dist("f", dist) is dist


#: Each distribution next to the JSON a spec file writes for it.
JSON_FORMS = (
    (Const(8), 8),
    (Const(None), None),
    (Choice(values=(1, 2, 3), weights=(1.0, 1.0, 1.0)), {"choice": [1, 2, 3]}),
    (
        Choice(values=(None, 8960), weights=(2.0, 1.0)),
        {"choice": [None, 8960], "weights": [2.0, 1.0]},
    ),
    (Uniform(lo=40.0, hi=80.0), {"uniform": [40.0, 80.0]}),
    (UniformInt(lo=4, hi=10), {"uniform_int": [4, 10]}),
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dist, raw",
        JSON_FORMS,
        ids=[f"dist{index}" for index in range(len(JSON_FORMS))],
    )
    def test_jsonable_round_trips(self, dist, raw):
        """Every distribution is reachable from its written JSON form."""
        assert parse_dist("f", raw, lambda v: v) == dist
