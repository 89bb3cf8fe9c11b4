"""Unit tests for processes and tasks."""

import pytest

from repro.common.errors import SchedulerError
from repro.cpu.isa import Compute
from repro.cpu.program import Program
from repro.os.process import Process, TaskStatus
from repro.os.vm import AddressSpace, PhysicalMemory


def make_process(name="p"):
    phys = PhysicalMemory()
    return Process(name, AddressSpace(name, phys))


def prog():
    def factory():
        yield Compute(1)

    return Program("noop", factory)


def test_pids_unique():
    assert make_process().pid != make_process().pid


def test_spawn_attaches_task():
    process = make_process()
    task = process.spawn(prog(), affinity=0)
    assert task.process is process
    assert task.affinity == 0


def test_tids_unique():
    process = make_process()
    a = process.spawn(prog())
    b = process.spawn(prog())
    assert a.tid != b.tid


def test_task_name_includes_process_and_program():
    process = make_process("gpg")
    task = process.spawn(prog())
    assert "gpg" in task.name and "noop" in task.name


def test_generator_is_lazy_and_cached():
    process = make_process()
    task = process.spawn(prog())
    gen = task.generator()
    assert task.generator() is gen


def test_exit_clears_generator():
    process = make_process()
    task = process.spawn(prog())
    task.generator()
    task.exit()
    assert task.status is TaskStatus.EXITED
    with pytest.raises(SchedulerError):
        task.assert_runnable()


def test_translate_delegates_to_address_space():
    process = make_process()
    seg = process.address_space.phys.allocate_segment("a", 4096)
    process.address_space.map_segment(seg, 0x10000)
    task = process.spawn(prog())
    assert task.translate(0x10008) == seg.phys_base + 8
    assert task.translator()(0x10008) == seg.phys_base + 8


def test_threads_share_address_space():
    process = make_process()
    t1 = process.spawn(prog())
    t2 = process.spawn(prog())
    assert t1.process.address_space is t2.process.address_space
