"""Unit tests for the LLC directory."""

from repro.memsys.coherence import Directory


def test_add_remove_sharer():
    d = Directory()
    d.add_sharer(0x10, "L1D0")
    d.add_sharer(0x10, "L1D1")
    assert d.sharers(0x10) == {"L1D0", "L1D1"}
    d.remove_sharer(0x10, "L1D0")
    assert d.sharers(0x10) == {"L1D1"}


def test_remove_last_sharer_forgets_line():
    d = Directory()
    d.add_sharer(0x10, "L1D0")
    d.remove_sharer(0x10, "L1D0")
    assert d.sharers(0x10) == set()
    assert 0x10 not in d._sharers


def test_owner_lifecycle():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    assert d.owner(0x10) == "L1D0"
    assert "L1D0" in d.sharers(0x10)  # owning implies sharing
    d.clear_owner(0x10)
    assert d.owner(0x10) == ""


def test_removing_owner_sharer_clears_ownership():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.remove_sharer(0x10, "L1D0")
    assert d.owner(0x10) == ""


def test_drop_line_returns_sharers():
    d = Directory()
    d.set_owner(0x10, "L1D0")
    d.add_sharer(0x10, "L1D1")
    dropped = d.drop_line(0x10)
    assert dropped == {"L1D0", "L1D1"}
    assert d.owner(0x10) == ""
    assert d.sharers(0x10) == set()
