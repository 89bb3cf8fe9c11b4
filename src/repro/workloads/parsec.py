"""PARSEC-style experiment construction: 2 threads on 2 cores.

Reproduces the paper's multithreaded methodology (system-emulation mode
with the clone syscall placing the second thread on another core): one
process, one address space, two tasks pinned to different cores.  The
threads partition the data working set (each owns half) but share the
program text, the shared libraries, a shared read-mostly region, and the
kernel — so first accesses occur only at the shared LLC, never in the
private L1s (Figure 9b's key observation).
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.cpu.program import Program, ProgramGen
from repro.os.kernel import Kernel
from repro.os.process import Task
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    KERNEL_LINES,
    LIB_BASE,
    WorkloadBuilder,
)
from repro.workloads.profiles import BenchmarkProfile, parsec_profile

#: region of the data segment both threads read (shared input data)
SHARED_DATA_FRACTION = 0.125


def _thread_program(
    profile: BenchmarkProfile,
    thread_id: int,
    instructions: int,
    line_bytes: int,
    rng: DeterministicRng,
) -> Program:
    """One PARSEC thread: private partition + shared read-mostly region."""
    ws = profile.data_lines
    shared_lines = max(1, int(ws * SHARED_DATA_FRACTION))
    private_lines = max(1, (ws - shared_lines) // 2)
    private_base_line = shared_lines + thread_id * private_lines
    hot_lines = max(1, int(private_lines * profile.hot_set_fraction))

    def factory() -> ProgramGen:
        randint, random = rng.bound_draws()
        retired = 0
        stream_pos = 0
        stream_in_line = 0
        code_pos = thread_id  # threads start in different code regions
        since_ifetch = 0
        while retired < instructions:
            since_ifetch += 1
            if since_ifetch >= profile.ifetch_every:
                since_ifetch = 0
                r = random()
                if r < 0.1 and profile.shared_lib_lines > 0:
                    line = randint(0, profile.shared_lib_lines - 1)
                    yield Ifetch(LIB_BASE + line * line_bytes)
                elif r < 0.13:
                    line = randint(0, KERNEL_LINES - 1)
                    yield Ifetch(KERNEL_BASE + line * line_bytes)
                else:
                    code_pos = (code_pos + 1) % profile.code_lines
                    yield Ifetch(CODE_BASE + code_pos * line_bytes)
                retired += 1
                continue
            if random() < profile.mem_ratio:
                r = random()
                if r < 0.08:
                    # read the shared input region (cross-thread sharing)
                    index = randint(0, shared_lines - 1)
                    yield Load(DATA_BASE + index * line_bytes)
                else:
                    if random() < profile.stream_fraction:
                        stream_in_line += 1
                        if stream_in_line >= profile.stream_accesses_per_line:
                            stream_in_line = 0
                            stream_pos = (stream_pos + 1) % private_lines
                        index = private_base_line + stream_pos
                    elif random() < profile.hot_fraction:
                        index = private_base_line + randint(0, hot_lines - 1)
                    else:
                        index = private_base_line + randint(
                            0, private_lines - 1
                        )
                    addr = DATA_BASE + index * line_bytes
                    if random() < profile.write_ratio:
                        yield Store(addr)
                    else:
                        yield Load(addr)
                retired += 1
            else:
                burst = randint(1, 4)
                yield Compute(burst)
                retired += burst
        yield Exit()

    return Program(f"{profile.name}.t{thread_id}", factory)


def build_parsec_workload(
    kernel: Kernel,
    bench: str,
    instructions_per_thread: int,
    seed: int = 0xFACE,
) -> Tuple[Task, Task]:
    """One PARSEC process with two threads pinned to cores 0 and 1."""
    if kernel.config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("PARSEC workloads need two hardware contexts")
    profile = parsec_profile(bench)
    profile.validate()
    builder = WorkloadBuilder(kernel, seed=seed)
    line_bytes = builder.line_bytes

    process = kernel.create_process(profile.name)
    aspace = process.address_space
    code_seg = kernel.phys.allocate_segment(
        f"{profile.name}.text", profile.code_lines * line_bytes
    )
    aspace.map_segment(code_seg, CODE_BASE)
    aspace.map_segment(builder._lib_segment(profile.shared_lib_lines), LIB_BASE)
    aspace.map_segment(kernel.phys.segment("kernel.text"), KERNEL_BASE)
    data_seg = kernel.phys.allocate_segment(
        f"{profile.name}.data", profile.data_lines * line_bytes
    )
    aspace.map_segment(data_seg, DATA_BASE)

    rng = DeterministicRng(seed)
    t0 = process.spawn(
        _thread_program(
            profile, 0, instructions_per_thread, line_bytes, rng.fork("t0")
        ),
        affinity=0,
    )
    t1 = process.spawn(
        _thread_program(
            profile, 1, instructions_per_thread, line_bytes, rng.fork("t1")
        ),
        affinity=1,
    )
    kernel.submit(t0)
    kernel.submit(t1)
    return t0, t1
