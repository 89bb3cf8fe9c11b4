"""Turn a :class:`BenchmarkProfile` into a runnable process.

:class:`WorkloadBuilder` lays out a process's address space (private
data, private or shared benchmark text, shared libc, shared kernel text)
on a :class:`~repro.os.kernel.Kernel` and gives it a program that emits
the profile's instruction/memory mix until a target instruction count is
reached.

The program never reads an op's result, so its whole stream is drawn up
front: :func:`emit_profile_tape` writes it to an
:class:`~repro.cpu.program.OpTape` (a kind byte and an int64 argument per
op) that the CPU walks by index.  Builders given one ``tapes`` dict emit
each program once and share its tape, which is how one experiment runs
the same stream under the baseline and under TimeCache.

Everything is deterministic given the seed, so a baseline run and a
TimeCache run of the same experiment execute the *identical* operation
stream — the normalized-execution-time comparisons of Figures 7/9/10
compare cycles over fixed work.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional

from repro.common.rng import DeterministicRng
from repro.cpu.program import (
    TAPE_COMPUTE,
    TAPE_EXIT,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpTape,
    Program,
    tape_program,
)
from repro.os.kernel import Kernel
from repro.workloads.profiles import LIB_LINES, BenchmarkProfile

#: virtual layout, common to every synthetic process
CODE_BASE = 0x0400000
LIB_BASE = 0x2000000
KERNEL_BASE = 0x3000000
DATA_BASE = 0x8000000

#: shared kernel text size, in lines (mapped into every process)
KERNEL_LINES = 96

#: op tapes by everything their emission depends on, shared between the
#: builders one experiment creates for its configurations
Tapes = Dict[tuple, OpTape]


class WorkloadBuilder:
    """Builds synthetic benchmark processes on a kernel.

    ``tapes`` is a dict the caller owns: builders given the same one emit
    each program's tape once and share it (see :meth:`shared_tape`).
    """

    def __init__(
        self, kernel: Kernel, seed: int = 0xBEEF, tapes: Optional[Tapes] = None
    ) -> None:
        self.kernel = kernel
        self.rng = DeterministicRng(seed)
        self.line_bytes = kernel.config.hierarchy.line_bytes
        self.tapes: Tapes = {} if tapes is None else tapes
        # One shared kernel text for the whole machine, one shared libc.
        self._kernel_seg = kernel.phys.allocate_segment(
            "kernel.text", KERNEL_LINES * self.line_bytes, content_key="kernel"
        )
        self._lib_seg = None

    # ------------------------------------------------------------------
    def _lib_segment(self):
        """The shared libc segment: ``LIB_LINES`` lines, allocated on
        first use.

        All processes map the same physical libc; a benchmark's
        ``shared_lib_lines`` (validated to fit) selects how much of it
        the benchmark uses.
        """
        if self._lib_seg is None:
            self._lib_seg = self.kernel.phys.allocate_segment(
                "libc.text", LIB_LINES * self.line_bytes, content_key="libc-2.31"
            )
        return self._lib_seg

    def shared_tape(self, emit: Callable[..., OpTape], tag: str, *inputs) -> OpTape:
        """``emit(*inputs, rng)``, with ``rng`` this builder's stream
        forked by ``tag``.

        The tape is kept in ``tapes``: a later call on a builder sharing
        that dict, with the same emitter, seed, tag and (hashable)
        inputs — the same stream — returns it instead of emitting again.
        """
        key = (emit, self.rng.seed, tag) + inputs
        tape = self.tapes.get(key)
        if tape is None:
            tape = self.tapes[key] = emit(*inputs, self.rng.fork(tag))
        return tape

    def build_process(
        self,
        profile: BenchmarkProfile,
        instance: int,
        instructions: int,
        affinity: int = 0,
    ):
        """Create one process + task running ``profile``.

        Benchmark text is allocated with a content key, so two instances
        of the same benchmark automatically share their binary's physical
        pages (the ``2Xfoo`` configuration: same content, deduplicated by
        the loader), while different benchmarks get distinct pages.
        """
        profile.validate()
        name = f"{profile.name}.{instance}"
        process = self.kernel.create_process(name)
        aspace = process.address_space
        line_bytes = self.line_bytes

        code_seg = self.kernel.phys.allocate_segment(
            f"{name}.text",
            profile.code_lines * line_bytes,
            content_key=f"bin-{profile.name}",
        )
        aspace.map_segment(code_seg, CODE_BASE)
        aspace.map_segment(self._lib_segment(), LIB_BASE)
        aspace.map_segment(self._kernel_seg, KERNEL_BASE)
        data_seg = self.kernel.phys.allocate_segment(
            f"{name}.data", profile.data_lines * line_bytes
        )
        aspace.map_segment(data_seg, DATA_BASE)

        program = self._make_program(profile, instructions, seed_tag=name)
        task = process.spawn(program, affinity=affinity)
        return process, task

    # ------------------------------------------------------------------
    def _make_program(
        self, profile: BenchmarkProfile, instructions: int, seed_tag: str
    ) -> Program:
        """The program running the profile's op stream, from its tape."""
        tape = self.shared_tape(
            emit_profile_tape, seed_tag, profile, instructions, self.line_bytes
        )
        return tape_program(profile.name, tape)


def emit_profile_tape(
    profile: BenchmarkProfile,
    instructions: int,
    line_bytes: int,
    rng: DeterministicRng,
) -> OpTape:
    """The profile's op stream, ``instructions`` retired then an exit.

    Draws from ``rng`` in a fixed order, so a given rng state always
    yields the identical stream.
    """
    randint, random = rng.bound_draws()
    getrandbits = rng.getrandbits
    kinds = bytearray()
    args = array("q")
    put_kind = kinds.append
    put_arg = args.append
    hot_lines = max(1, int(profile.data_lines * profile.hot_set_fraction))
    ws_lines = profile.data_lines
    lib_lines = profile.shared_lib_lines
    code_lines = profile.code_lines
    ifetch_every = profile.ifetch_every
    syscall_every = profile.syscall_every
    mem_ratio = profile.mem_ratio
    stream_fraction = profile.stream_fraction
    hot_fraction = profile.hot_fraction
    write_ratio = profile.write_ratio
    stream_accesses_per_line = profile.stream_accesses_per_line
    syscall_kinds = bytes([TAPE_IFETCH] * 4)
    retired = 0
    stream_pos = randint(0, ws_lines - 1)
    stream_in_line = 0
    code_pos = 0
    since_ifetch = 0
    since_syscall = 0
    while retired < instructions:
        # Instruction fetch stream: walk the code footprint, with
        # a slice of fetches landing in the shared library.
        since_ifetch += 1
        if since_ifetch >= ifetch_every:
            since_ifetch = 0
            if random() < 0.15 and lib_lines > 0:
                addr = LIB_BASE + randint(0, lib_lines - 1) * line_bytes
            else:
                code_pos = (code_pos + 1) % code_lines
                if random() < 0.1:  # branch: jump somewhere
                    code_pos = randint(0, code_lines - 1)
                addr = CODE_BASE + code_pos * line_bytes
            put_kind(TAPE_IFETCH)
            put_arg(addr)
            retired += 1
            continue

        # Occasional syscall: a burst through shared kernel text.
        since_syscall += 1
        if since_syscall >= syscall_every:
            since_syscall = 0
            addr = KERNEL_BASE + randint(0, KERNEL_LINES - 5) * line_bytes
            kinds += syscall_kinds
            args.extend(
                (addr, addr + line_bytes, addr + 2 * line_bytes, addr + 3 * line_bytes)
            )
            retired += 4
            continue

        if random() < mem_ratio:
            # Data access: streaming, hot, or cold.
            if random() < stream_fraction:
                stream_in_line += 1
                if stream_in_line >= stream_accesses_per_line:
                    stream_in_line = 0
                    stream_pos = (stream_pos + 1) % ws_lines
                index = stream_pos
            elif random() < hot_fraction:
                index = randint(0, hot_lines - 1)
            else:
                index = randint(0, ws_lines - 1)
            put_kind(TAPE_STORE if random() < write_ratio else TAPE_LOAD)
            put_arg(DATA_BASE + index * line_bytes)
            retired += 1
        else:
            # A run of ALU work between memory operations.
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
