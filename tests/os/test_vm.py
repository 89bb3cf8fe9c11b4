"""Unit tests for physical memory, segments, and address spaces."""

from array import array

import pytest

from repro.common.errors import SimulationError
from repro.cpu.program import (
    TAPE_COMPUTE,
    TAPE_EXIT,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpTape,
)
from repro.os.vm import AddressSpace, PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(page_bytes=4096)


def test_page_size_must_be_power_of_two():
    with pytest.raises(SimulationError):
        PhysicalMemory(page_bytes=3000)


def test_segment_allocation_is_page_aligned(phys):
    seg = phys.allocate_segment("a", 100)
    assert seg.phys_base % 4096 == 0
    assert seg.num_pages == 1


def test_segments_do_not_overlap(phys):
    a = phys.allocate_segment("a", 8192)
    b = phys.allocate_segment("b", 4096)
    a_pages = {a.phys_page(i) for i in range(a.num_pages)}
    assert b.phys_page(0) not in a_pages


def test_duplicate_segment_name_rejected(phys):
    phys.allocate_segment("a", 100)
    with pytest.raises(SimulationError):
        phys.allocate_segment("a", 100)


def test_dedup_by_content_key(phys):
    a = phys.allocate_segment("libc-in-proc-a", 8192, content_key="libc")
    b = phys.allocate_segment("libc-in-proc-b", 8192, content_key="libc")
    assert a.phys_base == b.phys_base
    assert phys.dedup_hits == 1


def test_dedup_saves_physical_memory(phys):
    before = phys.allocated_bytes
    phys.allocate_segment("x1", 4096 * 4, content_key="img")
    mid = phys.allocated_bytes
    phys.allocate_segment("x2", 4096 * 4, content_key="img")
    assert phys.allocated_bytes == mid
    assert mid - before == 4096 * 4


def test_segment_lookup(phys):
    phys.allocate_segment("a", 100)
    assert phys.segment("a").name == "a"
    with pytest.raises(SimulationError):
        phys.segment("missing")


class TestAddressSpace:
    def test_translate(self, phys):
        aspace = AddressSpace("p", phys)
        seg = phys.allocate_segment("a", 8192)
        aspace.map_segment(seg, 0x10000)
        paddr = aspace.translate(0x10000 + 123)
        assert paddr == seg.phys_base + 123
        paddr2 = aspace.translate(0x10000 + 4096 + 7)
        assert paddr2 == seg.phys_base + 4096 + 7

    def test_unmapped_access_faults(self, phys):
        aspace = AddressSpace("p", phys)
        with pytest.raises(SimulationError):
            aspace.translate(0xDEAD000)

    def test_unaligned_map_rejected(self, phys):
        aspace = AddressSpace("p", phys)
        seg = phys.allocate_segment("a", 4096)
        with pytest.raises(SimulationError):
            aspace.map_segment(seg, 0x10001)

    def test_double_map_rejected(self, phys):
        aspace = AddressSpace("p", phys)
        a = phys.allocate_segment("a", 4096)
        b = phys.allocate_segment("b", 4096)
        aspace.map_segment(a, 0x10000)
        with pytest.raises(SimulationError):
            aspace.map_segment(b, 0x10000)

    def test_two_spaces_share_physical_page(self, phys):
        seg = phys.allocate_segment("shared", 4096)
        a = AddressSpace("a", phys)
        b = AddressSpace("b", phys)
        a.map_segment(seg, 0x10000)
        b.map_segment(seg, 0x70000)  # different virtual bases
        assert a.translate(0x10040) == b.translate(0x70040)

    def test_shares_page_with(self, phys):
        seg = phys.allocate_segment("shared", 4096)
        a = AddressSpace("a", phys)
        b = AddressSpace("b", phys)
        a.map_segment(seg, 0x10000)
        b.map_segment(seg, 0x10000)
        assert a.translate(0x10000) == b.translate(0x10000)
        for space in (a, b):
            with pytest.raises(SimulationError, match="page fault"):
                space.translate(0x90000)

    def test_is_mapped(self, phys):
        seg = phys.allocate_segment("a", 4096)
        aspace = AddressSpace("p", phys)
        aspace.map_segment(seg, 0x30000)
        assert aspace.translate(0x30FFF) == seg.phys_base + 0xFFF
        with pytest.raises(SimulationError, match="page fault at 0x31000"):
            aspace.translate(0x31000)

    def test_a_refused_segment_maps_no_page(self, phys):
        """A segment that overlaps a mapped page is refused whole: its
        pages before the overlap stay unmapped."""
        aspace = AddressSpace("p", phys)
        aspace.map_segment(phys.allocate_segment("a", 4096), 0x10000)
        with pytest.raises(SimulationError, match="vpage 0x10 already mapped"):
            aspace.map_segment(phys.allocate_segment("b", 3 * 4096), 0xF000)
        with pytest.raises(SimulationError, match="page fault at 0xf000"):
            aspace.translate(0xF000)


class TestPhysicalArgs:
    """An op tape's arguments with every memory op's address physical,
    one array per page layout, kept on the tape."""

    def tape(self, *ops):
        kinds = bytearray(code for code, _ in ops) + bytearray([TAPE_EXIT])
        return OpTape(kinds, array("q", [arg for _, arg in ops] + [0]))

    def test_each_address_translated_as_translate_would(self, phys):
        seg = phys.allocate_segment("data", 3 * 4096)
        lib = phys.allocate_segment("lib", 4096)
        aspace = AddressSpace("p", phys)
        aspace.map_segment(seg, 0x30000)
        aspace.map_segment(lib, 0x80000)
        tape = self.tape(
            (TAPE_LOAD, 0x32FFF), (TAPE_COMPUTE, 0x30000), (TAPE_STORE, 0x30008),
            (TAPE_IFETCH, 0x80040), (TAPE_COMPUTE, 2), (TAPE_LOAD, 0x31000),
        )
        args = aspace.physical_args(tape)
        translate = aspace.translate
        assert list(args) == [
            translate(0x32FFF), 0x30000, translate(0x30008), translate(0x80040),
            2, translate(0x31000), 0,
        ]
        assert args.typecode == "q" and args is not tape.args

    def test_one_array_per_layout(self, phys):
        seg = phys.allocate_segment("data", 4096)
        other = phys.allocate_segment("other", 4096)
        tape = self.tape((TAPE_LOAD, 0x10040), (TAPE_STORE, 0x10080))
        a, b, c = (AddressSpace(name, phys) for name in "abc")
        a.map_segment(seg, 0x10000)
        b.map_segment(seg, 0x10000)
        c.map_segment(other, 0x10000)
        # the same pages mapped alike: one array, for every walker
        assert b.physical_args(tape.rewound()) is a.physical_args(tape)
        private = c.physical_args(tape)
        assert list(private)[:2] == [c.translate(0x10040), c.translate(0x10080)]
        assert private is not a.physical_args(tape)

    def test_an_unmapped_address_faults_as_translate_does(self, phys):
        seg = phys.allocate_segment("data", 4096)
        aspace = AddressSpace("p", phys)
        aspace.map_segment(seg, 0x50000)
        tape = self.tape(
            (TAPE_LOAD, 0x50000), (TAPE_COMPUTE, 0x10000), (TAPE_LOAD, 0x90010),
            (TAPE_LOAD, 0x10000),
        )
        with pytest.raises(SimulationError) as expected:
            aspace.translate(0x90010)  # first in op order, not lowest page
        with pytest.raises(SimulationError) as fault:
            aspace.physical_args(tape)
        assert str(fault.value) == str(expected.value)
