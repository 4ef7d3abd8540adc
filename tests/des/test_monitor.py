"""Tests for measurement probes."""

import pytest

from repro.des.monitor import Counter
from repro.errors import SimulationError


class TestCounter:
    def test_accumulates(self):
        c = Counter("bytes")
        c.add(10)
        c.add(5.5)
        assert c.value == 15.5

    def test_default_increment_is_one(self):
        c = Counter("hits")
        c.add()
        c.add()
        assert c.value == 2.0

    def test_negative_add_rejected(self):
        with pytest.raises(SimulationError):
            Counter("x").add(-1)

    def test_repr_contains_name_and_value(self):
        c = Counter("misses")
        c.add(3)
        assert "misses" in repr(c) and "3" in repr(c)
