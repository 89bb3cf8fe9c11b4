"""Unit tests for statistics primitives."""

import pytest

from repro.common.stats import Counter, StatGroup


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        c = Counter("x")
        c.add(3)
        c.reset()
        assert c.value == 0


class TestStatGroup:
    def test_lazy_creation_and_get(self):
        g = StatGroup("cache")
        g.counter("hits").add(2)
        assert g.get("hits") == 2
        assert g.get("nonexistent") == 0

    def test_counter_identity(self):
        g = StatGroup("cache")
        assert g.counter("hits") is g.counter("hits")

    def test_snapshot_keys_are_namespaced(self):
        g = StatGroup("L1D")
        g.counter("misses").add(3)
        assert g.snapshot() == {"L1D.misses": 3}

    def test_reset_clears_everything(self):
        g = StatGroup("x")
        g.counter("a").add(1)
        g.bound_counter("b").add(2)
        g.reset()
        assert g.get("a") == 0
        assert g.get("b") == 0
