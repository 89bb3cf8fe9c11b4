"""SPEC-style experiment construction: two processes on one core.

Reproduces the paper's single-core methodology: two benchmark processes
are time-sliced on one core by the round-robin scheduler; the shared
software between them is libc, kernel text, and — for same-benchmark
pairs — the benchmark binary itself.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.os.kernel import Kernel
from repro.os.process import Task
from repro.workloads.generator import Tapes, WorkloadBuilder
from repro.workloads.profiles import spec_profile


def build_spec_pair(
    kernel: Kernel,
    bench_a: str,
    bench_b: str,
    instructions: int,
    seed: int = 0xBEEF,
    tapes: Optional[Tapes] = None,
) -> Tuple[Task, Task]:
    """Create the two processes of one Table II row on core 0.

    Both tasks execute ``instructions`` instructions; the run completes
    when both exit, and normalized execution time is taken over the
    makespan (fixed work, variable time).  Builds given the same
    ``tapes`` dict emit each program's tape once and share it
    (:meth:`WorkloadBuilder.shared_tape`).
    """
    builder = WorkloadBuilder(kernel, seed=seed, tapes=tapes)
    _, task_a = builder.build_process(
        spec_profile(bench_a), instance=0, instructions=instructions, affinity=0
    )
    _, task_b = builder.build_process(
        spec_profile(bench_b), instance=1, instructions=instructions, affinity=0
    )
    kernel.submit(task_a)
    kernel.submit(task_b)
    return task_a, task_b
