"""Tests for trace recording, serialization, and replay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ProgramError
from repro.cpu.isa import (
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Rdtsc,
    SleepOp,
    Store,
    YieldOp,
)
from repro.cpu.program import Program, trace_program
from repro.cpu.tracing import (
    format_op,
    load_trace,
    parse_op,
    record_program,
    save_trace,
    trace_file_program,
)

ALL_OPS = [
    Load(0x1000),
    Store(0xBEEF40),
    Ifetch(0x2000),
    Flush(0x1000),
    Compute(7),
    Rdtsc(),
    Fence(),
    YieldOp(),
    SleepOp(500),
    Exit(),
]


def ops_equal(a, b):
    if type(a) is not type(b):
        return False
    for attr in ("vaddr", "instructions", "cycles"):
        if getattr(a, attr, None) != getattr(b, attr, None):
            return False
    return True


def test_format_parse_roundtrip_all_kinds():
    for op in ALL_OPS:
        assert ops_equal(parse_op(format_op(op)), op)


@given(st.integers(0, 2**48))
def test_address_roundtrip_property(vaddr):
    assert parse_op(format_op(Load(vaddr))).vaddr == vaddr


def test_parse_rejects_garbage():
    for bad in ("", "Q 1", "L", "C xyz", "L zz"):
        with pytest.raises(ProgramError):
            parse_op(bad)


def test_record_program():
    program = trace_program("t", ALL_OPS)
    ops = record_program(program)
    assert len(ops) == len(ALL_OPS)


def test_record_bounds_runaway():
    def forever():
        while True:
            yield Compute(1)

    with pytest.raises(ProgramError):
        record_program(Program("f", forever), max_ops=100)


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "trace.txt"
    assert save_trace(ALL_OPS, path) == len(ALL_OPS)
    loaded = load_trace(path)
    assert len(loaded) == len(ALL_OPS)
    for a, b in zip(ALL_OPS, loaded):
        assert ops_equal(a, b)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n\nL 1000\n# mid\nX\n")
    ops = load_trace(path)
    assert len(ops) == 2
    assert ops[0].vaddr == 0x1000


def test_trace_file_program_restartable(tmp_path):
    path = tmp_path / "trace.txt"
    save_trace([Load(0x10), Exit()], path)
    program = trace_file_program("replay", path)
    assert len(list(program.start())) == 2
    assert len(list(program.start())) == 2


def test_recorded_workload_replays_identically(tmp_path):
    """A workload trace saved and replayed drives the simulator to the
    exact same state as the original generator."""
    from repro.os.kernel import Kernel
    from repro.workloads.generator import WorkloadBuilder
    from repro.workloads.profiles import spec_profile

    from tests.conftest import tiny_config

    def run(program):
        kernel = Kernel(tiny_config())
        # identical address-space layout for generator and replay runs
        builder = WorkloadBuilder(kernel, seed=5)
        proc, task = builder.build_process(
            spec_profile("namd"), 0, instructions=3_000
        )
        if program is not None:
            task = proc.spawn(program, affinity=0)  # replay instead
        kernel.submit(task)
        kernel.run()
        return kernel.system.stats_snapshot(), task

    # record the generator's ops once
    kernel = Kernel(tiny_config())
    builder = WorkloadBuilder(kernel, seed=5)
    _, source_task = builder.build_process(
        spec_profile("namd"), 0, instructions=3_000
    )
    ops = record_program(source_task.program)
    path = tmp_path / "namd.trace"
    save_trace(ops, path)

    stats_original, _ = run(None)
    stats_replay, _ = run(trace_file_program("namd-replay", path))
    assert stats_original == stats_replay
