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

from array import array
from typing import Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.cpu.program import (
    TAPE_COMPUTE,
    TAPE_EXIT,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpTape,
    tape_program,
)
from repro.os.kernel import Kernel
from repro.os.process import Task
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    KERNEL_LINES,
    LIB_BASE,
    Tapes,
    WorkloadBuilder,
)
from repro.workloads.profiles import BenchmarkProfile, parsec_profile

#: region of the data segment both threads read (shared input data)
SHARED_DATA_FRACTION = 0.125


def emit_thread_tape(
    profile: BenchmarkProfile,
    thread_id: int,
    instructions: int,
    line_bytes: int,
    rng: DeterministicRng,
) -> OpTape:
    """One PARSEC thread's op stream: private partition + shared
    read-mostly region, ``instructions`` retired then an exit.

    Each fixed-range draw is
    :meth:`~repro.common.rng.DeterministicRng.bound_draws`' ``randint``
    inlined, as in :func:`~repro.workloads.generator.emit_profile_tape`.
    """
    ws = profile.data_lines
    shared_lines = max(1, int(ws * SHARED_DATA_FRACTION))
    private_lines = max(1, (ws - shared_lines) // 2)
    private_base_line = shared_lines + thread_id * private_lines
    hot_lines = max(1, int(private_lines * profile.hot_set_fraction))
    lib_lines = profile.shared_lib_lines
    code_lines = profile.code_lines
    ifetch_every = profile.ifetch_every
    mem_ratio = profile.mem_ratio
    stream_fraction = profile.stream_fraction
    hot_fraction = profile.hot_fraction
    write_ratio = profile.write_ratio
    stream_accesses_per_line = profile.stream_accesses_per_line

    _, random = rng.bound_draws()
    getrandbits = rng.getrandbits
    # randint(0, n - 1) for each fixed n below: n, and its bit width
    lib_bits = lib_lines.bit_length()
    kernel_bits = KERNEL_LINES.bit_length()
    shared_bits = shared_lines.bit_length()
    hot_bits = hot_lines.bit_length()
    private_bits = private_lines.bit_length()
    kinds = bytearray()
    args = array("q")
    put_kind = kinds.append
    put_arg = args.append
    retired = 0
    stream_pos = 0
    stream_in_line = 0
    code_pos = thread_id  # threads start in different code regions
    since_ifetch = 0
    while retired < instructions:
        since_ifetch += 1
        if since_ifetch >= ifetch_every:
            since_ifetch = 0
            r = random()
            if r < 0.1 and lib_lines > 0:
                line = getrandbits(lib_bits)
                while line >= lib_lines:
                    line = getrandbits(lib_bits)
                addr = LIB_BASE + line * line_bytes
            elif r < 0.13:
                line = getrandbits(kernel_bits)
                while line >= KERNEL_LINES:
                    line = getrandbits(kernel_bits)
                addr = KERNEL_BASE + line * line_bytes
            else:
                code_pos = (code_pos + 1) % code_lines
                addr = CODE_BASE + code_pos * line_bytes
            put_kind(TAPE_IFETCH)
            put_arg(addr)
            retired += 1
            continue
        if random() < mem_ratio:
            if random() < 0.08:
                # read the shared input region (cross-thread sharing)
                line = getrandbits(shared_bits)
                while line >= shared_lines:
                    line = getrandbits(shared_bits)
                put_kind(TAPE_LOAD)
                put_arg(DATA_BASE + line * line_bytes)
            else:
                if random() < stream_fraction:
                    stream_in_line += 1
                    if stream_in_line >= stream_accesses_per_line:
                        stream_in_line = 0
                        stream_pos = (stream_pos + 1) % private_lines
                    index = private_base_line + stream_pos
                elif random() < hot_fraction:
                    line = getrandbits(hot_bits)
                    while line >= hot_lines:
                        line = getrandbits(hot_bits)
                    index = private_base_line + line
                else:
                    line = getrandbits(private_bits)
                    while line >= private_lines:
                        line = getrandbits(private_bits)
                    index = private_base_line + line
                put_kind(TAPE_STORE if random() < write_ratio else TAPE_LOAD)
                put_arg(DATA_BASE + index * line_bytes)
            retired += 1
        else:
            # randint(1, 4), inlined: the same rejection draws of 3 bits
            burst = getrandbits(3)
            while burst >= 4:
                burst = getrandbits(3)
            burst += 1
            put_kind(TAPE_COMPUTE)
            put_arg(burst)
            retired += burst
    put_kind(TAPE_EXIT)
    put_arg(0)
    return OpTape(kinds, args)


def build_parsec_workload(
    kernel: Kernel,
    bench: str,
    instructions_per_thread: int,
    seed: int = 0xFACE,
    tapes: Optional[Tapes] = None,
) -> Tuple[Task, Task]:
    """One PARSEC process with two threads pinned to cores 0 and 1.

    Builds given the same ``tapes`` dict emit each thread's tape once
    and share it (:meth:`WorkloadBuilder.shared_tape`).
    """
    if kernel.config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("PARSEC workloads need two hardware contexts")
    profile = parsec_profile(bench)
    profile.validate()
    builder = WorkloadBuilder(kernel, seed=seed, tapes=tapes)
    line_bytes = builder.line_bytes

    process = kernel.create_process(profile.name)
    aspace = process.address_space
    code_seg = kernel.phys.allocate_segment(
        f"{profile.name}.text", profile.code_lines * line_bytes
    )
    aspace.map_segment(code_seg, CODE_BASE)
    aspace.map_segment(builder._lib_segment(), LIB_BASE)
    aspace.map_segment(kernel.phys.segment("kernel.text"), KERNEL_BASE)
    data_seg = kernel.phys.allocate_segment(
        f"{profile.name}.data", profile.data_lines * line_bytes
    )
    aspace.map_segment(data_seg, DATA_BASE)

    threads = []
    for thread_id in (0, 1):
        tag = f"t{thread_id}"
        tape = builder.shared_tape(
            emit_thread_tape,
            tag,
            profile,
            thread_id,
            instructions_per_thread,
            line_bytes,
        )
        program = tape_program(f"{profile.name}.{tag}", tape)
        threads.append(process.spawn(program, affinity=thread_id))
    t0, t1 = threads
    kernel.submit(t0)
    kernel.submit(t1)
    return t0, t1
