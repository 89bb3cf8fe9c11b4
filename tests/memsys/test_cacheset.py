"""Unit tests for CacheSet."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.memsys.cacheset import CacheSet


@pytest.fixture
def cset():
    return CacheSet(index=0, ways=4)


def test_lookup_miss_returns_none(cset):
    assert cset.lookup(0x42) is None


def test_install_and_lookup(cset):
    cset.install(0, tag=0x42, now=1)
    assert cset.lookup(0x42) == 0


def test_install_occupied_way_rejected(cset):
    cset.install(0, tag=1, now=1)
    with pytest.raises(SimulationError):
        cset.install(0, tag=2, now=2)


def test_duplicate_tag_rejected(cset):
    cset.install(0, tag=1, now=1)
    with pytest.raises(SimulationError):
        cset.install(1, tag=1, now=2)


def test_free_way_then_victim(cset):
    for way in range(4):
        assert cset.choose_victim() == way  # the first free way
        cset.install(way, tag=way, now=way)
    assert cset.occupancy == 4
    # LRU victim is tag 0 (oldest touch)
    assert cset.choose_victim() == 0


def test_choose_victim_prefers_free_way(cset):
    cset.install(0, tag=9, now=1)
    assert cset.choose_victim() == 1


def test_remove(cset):
    cset.install(2, tag=7, now=1)
    line = cset.remove(2)
    assert line.tag == 7
    assert cset.lookup(7) is None
    assert cset.occupancy == 0


def test_remove_empty_way_rejected(cset):
    with pytest.raises(SimulationError):
        cset.remove(0)


def test_touch_updates_lru_order(cset):
    for way in range(4):
        cset.install(way, tag=way, now=way)
    cset.touch(0, now=100)  # tag 0 becomes MRU; victim should be tag 1
    assert cset.choose_victim() == 1


def test_touch_empty_way_rejected(cset):
    with pytest.raises(SimulationError):
        cset.touch(3, now=5)


def test_resident_tags(cset):
    cset.install(0, tag=10, now=0)
    cset.install(1, tag=20, now=0)
    assert sorted(cset.resident_tags()) == [10, 20]


@given(st.lists(st.integers(0, 1000), min_size=2, max_size=8, unique=True))
def test_most_recent_never_victim(touches):
    cset = CacheSet(index=0, ways=len(touches))
    for way, touch in enumerate(touches):
        cset.install(way, tag=way, now=touch)
    assert touches[cset.choose_victim()] != max(touches)
