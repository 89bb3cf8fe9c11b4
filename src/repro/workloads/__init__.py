"""Synthetic SPEC2006/PARSEC-like workloads.

The paper measures TimeCache's overhead by running pairs of SPEC2006
benchmarks time-sliced on one core and 2-thread PARSEC benchmarks on two
cores.  Real benchmark binaries cannot run on a behavioral Python model,
so this package generates synthetic processes whose *memory behavior*
carries the properties the overhead depends on:

* a private data working set with tunable size, locality, and streaming
  fraction (controls the baseline LLC MPKI — calibrated so the MPKI
  *ordering* matches Table II);
* a code footprint split between benchmark-private text, a shared libc
  segment, and shared kernel text (controls how many *first accesses*
  occur after each context switch — the source of TimeCache's overhead);
* same-benchmark pairs additionally share their binary text (the paper's
  ``2Xfoo`` rows, which see more sharing than mixed pairs).

See :mod:`repro.workloads.profiles` for the per-benchmark parameters and
:mod:`repro.workloads.mixes` for the exact Table II pair list.
"""

from repro.workloads.generator import WorkloadBuilder
from repro.workloads.mixes import (
    PARSEC_BENCHMARKS,
    SPEC_MIXED_PAIRS,
    SPEC_SAME_PAIRS,
)
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC_PROFILES,
    BenchmarkProfile,
)
from repro.workloads.spec import build_spec_pair

__all__ = [
    "BenchmarkProfile",
    "PARSEC_BENCHMARKS",
    "PARSEC_PROFILES",
    "SPEC_MIXED_PAIRS",
    "SPEC_PROFILES",
    "SPEC_SAME_PAIRS",
    "WorkloadBuilder",
    "build_parsec_workload",
    "build_spec_pair",
]
