"""Unit tests for the LLC directory's owner table."""

from repro.memsys.coherence import Directory


def test_owner_lifecycle():
    d = Directory()
    assert d.owner(0x10) == ""
    d.set_owner(0x10, "L1D0")
    assert d.owner(0x10) == "L1D0"
    d.set_owner(0x10, "L1D1")  # a store from another core takes it over
    assert d.owner(0x10) == "L1D1"
    d.clear_owner(0x10)
    assert d.owner(0x10) == ""
    d.clear_owner(0x10)  # clearing an unowned line is a no-op
    assert d.owner(0x10) == ""


def test_remove_last_sharer_forgets_line():
    # The owner is the only cache the table names for a line, so its copy
    # leaving removes the line's entry.
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.release(0x10, "L1D0")
    assert 0x10 not in d._owner
    d.release(0x10, "L1D0")  # releasing an unowned line is a no-op
    assert 0x10 not in d._owner


def test_removing_owner_sharer_clears_ownership():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.release(0x10, "L1D0")
    assert d.owner(0x10) == ""
    d.release(0x10, "L1D0")
    assert d.owner(0x10) == ""


def test_release_by_another_cache_keeps_the_owner():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.release(0x10, "L1D1")
    d.release(0x10, "L1I0")
    assert d.owner(0x10) == "L1D0"


def test_drop_line_clears_the_owner():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.set_owner(0x20, "L1D1")
    assert d.drop_line(0x10) is None
    assert d.owner(0x10) == ""
    assert d.owner(0x20) == "L1D1"
    d.drop_line(0x30)  # a line with no owner
    assert d._owner == {0x20: "L1D1"}
