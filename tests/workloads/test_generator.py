"""Tests for the synthetic workload generator."""

import pytest

from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.os.kernel import Kernel
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    LIB_BASE,
    WorkloadBuilder,
)
from repro.workloads.profiles import spec_profile

from tests.conftest import tiny_config


@pytest.fixture
def kernel():
    return Kernel(tiny_config())


def collect_ops(program, limit=100_000):
    ops = []
    for op in program.start():
        ops.append(op)
        if len(ops) > limit:
            raise AssertionError("program did not terminate")
    return ops


def instructions_of(ops):
    total = 0
    for op in ops:
        if isinstance(op, Compute):
            total += op.instructions
        elif not isinstance(op, Exit):
            total += 1
    return total


def test_program_retires_requested_instructions(kernel):
    builder = WorkloadBuilder(kernel)
    _, task = builder.build_process(
        spec_profile("namd"), instance=0, instructions=5_000
    )
    ops = collect_ops(task.program)
    retired = instructions_of(ops)
    assert 5_000 <= retired <= 5_010  # may overshoot by one burst
    assert isinstance(ops[-1], Exit)


def test_program_is_deterministic(kernel):
    builder_a = WorkloadBuilder(Kernel(tiny_config()), seed=42)
    builder_b = WorkloadBuilder(Kernel(tiny_config()), seed=42)
    _, ta = builder_a.build_process(spec_profile("astar"), 0, 2_000)
    _, tb = builder_b.build_process(spec_profile("astar"), 0, 2_000)
    ops_a = [(type(o).__name__, getattr(o, "vaddr", None)) for o in collect_ops(ta.program)]
    ops_b = [(type(o).__name__, getattr(o, "vaddr", None)) for o in collect_ops(tb.program)]
    assert ops_a == ops_b


def test_address_regions_respected(kernel):
    builder = WorkloadBuilder(kernel)
    profile = spec_profile("gobmk")
    _, task = builder.build_process(profile, 0, 5_000)
    for op in collect_ops(task.program):
        if isinstance(op, (Load, Store)):
            assert DATA_BASE <= op.vaddr < DATA_BASE + profile.data_lines * 64
        elif isinstance(op, Ifetch):
            assert op.vaddr >= CODE_BASE


def test_all_regions_mapped(kernel):
    builder = WorkloadBuilder(kernel)
    process, task = builder.build_process(spec_profile("wrf"), 0, 3_000)
    aspace = process.address_space
    for op in collect_ops(task.program):
        if hasattr(op, "vaddr"):
            aspace.translate(op.vaddr)  # must not page-fault


def test_ifetch_mix_touches_lib_and_kernel(kernel):
    builder = WorkloadBuilder(kernel)
    _, task = builder.build_process(spec_profile("perlbench"), 0, 30_000)
    regions = {"code": 0, "lib": 0, "kernel": 0}
    for op in collect_ops(task.program):
        if isinstance(op, Ifetch):
            if op.vaddr >= KERNEL_BASE:
                regions["kernel"] += 1
            elif op.vaddr >= LIB_BASE:
                regions["lib"] += 1
            else:
                regions["code"] += 1
    assert all(count > 0 for count in regions.values())
    assert regions["code"] > regions["lib"]


def test_same_benchmark_instances_share_text(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("h264ref"), 0, 100)
    pb, _ = builder.build_process(spec_profile("h264ref"), 1, 100)
    a, b = pa.address_space, pb.address_space
    assert a.translate(CODE_BASE) == b.translate(CODE_BASE)


def test_different_benchmarks_do_not_share_text(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("h264ref"), 0, 100)
    pb, _ = builder.build_process(spec_profile("astar"), 1, 100)
    a, b = pa.address_space, pb.address_space
    assert a.translate(CODE_BASE) != b.translate(CODE_BASE)


def test_all_processes_share_libc_and_kernel(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("namd"), 0, 100)
    pb, _ = builder.build_process(spec_profile("gromacs"), 1, 100)
    a, b = pa.address_space, pb.address_space
    assert a.translate(LIB_BASE) == b.translate(LIB_BASE)
    assert a.translate(KERNEL_BASE) == b.translate(KERNEL_BASE)


def test_private_data_not_shared(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("namd"), 0, 100)
    pb, _ = builder.build_process(spec_profile("namd"), 1, 100)
    a, b = pa.address_space, pb.address_space
    assert a.translate(DATA_BASE) != b.translate(DATA_BASE)


def test_streaming_profile_advances_through_working_set(kernel):
    builder = WorkloadBuilder(kernel)
    profile = spec_profile("lbm")
    _, task = builder.build_process(profile, 0, 60_000)
    data_lines = set()
    for op in collect_ops(task.program):
        if isinstance(op, (Load, Store)):
            data_lines.add((op.vaddr - DATA_BASE) // 64)
    # the stream must cover far more lines than the hot set alone
    hot = int(profile.data_lines * profile.hot_set_fraction)
    assert len(data_lines) > 3 * hot
