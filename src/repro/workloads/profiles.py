"""Per-benchmark behavioral profiles.

Each :class:`BenchmarkProfile` parameterizes the synthetic generator so
the resulting process exhibits, at the scaled cache sizes, the memory
behavior that drives the paper's results:

* ``data_lines`` + ``stream_fraction`` + ``hot_fraction`` set the
  baseline LLC miss rate (streaming over a working set larger than the
  LLC produces high MPKI — the lbm/leslie3d/sjeng/milc group; a tiny hot
  set produces near-zero MPKI — specrand/swaptions);
* ``code_lines`` and ``shared_lib_lines`` set the instruction footprint
  and how much of it is shared software, which controls first-access
  misses after context switches (wrf and perlbench get large shared
  instruction footprints, as the paper calls out for Figure 8);
* ``syscall_every`` injects accesses to shared kernel text, modeling the
  kernel-space sharing the paper notes all process pairs have.

The absolute numbers are calibrated for the scaled experiment
configuration (default 128 KiB LLC = 2048 lines); what the reproduction
preserves is the *ordering* and grouping of Table II, not gem5's absolute
MPKI values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigError

#: shared libc text size, in lines: the one segment every process maps,
#: so no profile's ``shared_lib_lines`` may exceed it
LIB_LINES = 512


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator parameters for one synthetic benchmark."""

    name: str
    #: private data working-set size, in cache lines
    data_lines: int
    #: benchmark-private code footprint, in cache lines
    code_lines: int
    #: shared-library code footprint the benchmark actually uses, in lines
    shared_lib_lines: int
    #: fraction of data accesses that stream sequentially through the
    #: working set (high for lbm/leslie3d/milc/libquantum)
    stream_fraction: float
    #: fraction of non-streaming accesses that go to the hot subset
    hot_fraction: float = 0.85
    #: hot subset size as a fraction of the working set
    hot_set_fraction: float = 0.05
    #: fraction of instructions that are memory operations
    mem_ratio: float = 0.35
    #: fraction of memory operations that are stores
    write_ratio: float = 0.25
    #: one kernel-text access burst every N instructions (syscalls)
    syscall_every: int = 4000
    #: instruction-fetch block span: a new code line is fetched every N
    #: instructions (small = large active instruction footprint)
    ifetch_every: int = 12
    #: consecutive streaming accesses that land in one line before the
    #: stream advances (64-byte lines / 8-byte elements -> 8)
    stream_accesses_per_line: int = 8

    def validate(self) -> None:
        if self.data_lines <= 0 or self.code_lines <= 0:
            raise ConfigError(f"{self.name}: footprints must be positive")
        if not 0 <= self.shared_lib_lines <= LIB_LINES:
            raise ConfigError(
                f"{self.name}: shared_lib_lines {self.shared_lib_lines} "
                f"out of [0, {LIB_LINES}] (the shared libc segment's lines)"
            )
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ConfigError(f"{self.name}: stream_fraction out of [0,1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(f"{self.name}: hot_fraction out of [0,1]")
        if not 0.0 < self.mem_ratio < 1.0:
            raise ConfigError(f"{self.name}: mem_ratio out of (0,1)")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigError(f"{self.name}: write_ratio out of [0,1]")
        if self.syscall_every <= 0 or self.ifetch_every <= 0:
            raise ConfigError(f"{self.name}: rates must be positive")
        if self.stream_accesses_per_line <= 0:
            raise ConfigError(
                f"{self.name}: stream_accesses_per_line must be positive"
            )


# ----------------------------------------------------------------------
# SPEC2006 profiles (scaled to the 128 KiB / 2048-line experiment LLC).
# Groups, mirroring Table II's baseline MPKI ordering:
#   very high MPKI: leslie3d, lbm, sjeng, milc (streaming/huge WS)
#   high:           zeusmp, libquantum, cactus, wrf
#   medium:         gobmk, perlbench, astar, h264ref
#   low:            calculix, sphinx3, gromacs, namd, specrand
# ----------------------------------------------------------------------
SPEC_PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        BenchmarkProfile(
            "specrand", data_lines=96, code_lines=12, shared_lib_lines=24,
            stream_fraction=0.0, hot_fraction=0.95, mem_ratio=0.25,
        ),
        BenchmarkProfile(
            "lbm", data_lines=2560, code_lines=16, shared_lib_lines=16,
            stream_fraction=0.25, hot_fraction=0.98, mem_ratio=0.45,
            write_ratio=0.45,
        ),
        BenchmarkProfile(
            "leslie3d", data_lines=2560, code_lines=32, shared_lib_lines=24,
            stream_fraction=0.33, hot_fraction=0.98, mem_ratio=0.5,
            write_ratio=0.35,
        ),
        BenchmarkProfile(
            "gobmk", data_lines=8192, code_lines=96, shared_lib_lines=48,
            stream_fraction=0.02, hot_fraction=0.984, mem_ratio=0.3,
        ),
        BenchmarkProfile(
            "libquantum", data_lines=1024, code_lines=12, shared_lib_lines=16,
            stream_fraction=0.16, hot_fraction=0.98, mem_ratio=0.3,
        ),
        BenchmarkProfile(
            "wrf", data_lines=1280, code_lines=192, shared_lib_lines=96,
            stream_fraction=0.09, hot_fraction=0.95, mem_ratio=0.4,
            ifetch_every=6,
        ),
        BenchmarkProfile(
            "calculix", data_lines=512, code_lines=64, shared_lib_lines=48,
            stream_fraction=0.01, hot_fraction=0.995, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "sjeng", data_lines=8192, code_lines=48, shared_lib_lines=24,
            stream_fraction=0.0, hot_fraction=0.94, mem_ratio=0.4,
        ),
        BenchmarkProfile(
            "perlbench", data_lines=1536, code_lines=256, shared_lib_lines=128,
            stream_fraction=0.02, hot_fraction=0.985, mem_ratio=0.35,
            ifetch_every=5, syscall_every=1500,
        ),
        BenchmarkProfile(
            "astar", data_lines=1024, code_lines=32, shared_lib_lines=32,
            stream_fraction=0.05, hot_fraction=0.99, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "h264ref", data_lines=768, code_lines=96, shared_lib_lines=64,
            stream_fraction=0.05, hot_fraction=0.99, mem_ratio=0.35,
            syscall_every=2000,
        ),
        BenchmarkProfile(
            "milc", data_lines=2560, code_lines=32, shared_lib_lines=24,
            stream_fraction=0.29, hot_fraction=0.98, mem_ratio=0.45,
        ),
        BenchmarkProfile(
            "sphinx3", data_lines=640, code_lines=64, shared_lib_lines=48,
            stream_fraction=0.02, hot_fraction=0.995, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "namd", data_lines=384, code_lines=48, shared_lib_lines=32,
            stream_fraction=0.01, hot_fraction=0.995, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "gromacs", data_lines=512, code_lines=48, shared_lib_lines=32,
            stream_fraction=0.02, hot_fraction=0.995, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "zeusmp", data_lines=2560, code_lines=48, shared_lib_lines=24,
            stream_fraction=0.25, hot_fraction=0.98, mem_ratio=0.4,
        ),
        BenchmarkProfile(
            "cactus", data_lines=2560, code_lines=48, shared_lib_lines=24,
            stream_fraction=0.37, hot_fraction=0.98, mem_ratio=0.45,
        ),
    ]
}


# ----------------------------------------------------------------------
# PARSEC profiles: 2-thread runs on 2 cores.  Table II's PARSEC rows have
# far lower LLC MPKI than SPEC; threads share the address space, so the
# "shared" footprint is the whole program.
# ----------------------------------------------------------------------
PARSEC_PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        BenchmarkProfile(
            "fluidanimate", data_lines=1536, code_lines=64, shared_lib_lines=48,
            stream_fraction=0.01, hot_fraction=0.99, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "raytrace", data_lines=2048, code_lines=96, shared_lib_lines=64,
            stream_fraction=0.01, hot_fraction=0.985, mem_ratio=0.35,
        ),
        BenchmarkProfile(
            "blackscholes", data_lines=512, code_lines=24, shared_lib_lines=24,
            stream_fraction=0.01, hot_fraction=0.995, mem_ratio=0.3,
        ),
        BenchmarkProfile(
            "x264", data_lines=3072, code_lines=128, shared_lib_lines=64,
            stream_fraction=0.02, hot_fraction=0.98, mem_ratio=0.35,
            syscall_every=2500,
        ),
        BenchmarkProfile(
            "swaptions", data_lines=128, code_lines=32, shared_lib_lines=24,
            stream_fraction=0.0, hot_fraction=0.99, mem_ratio=0.3,
        ),
        BenchmarkProfile(
            "facesim", data_lines=1536, code_lines=96, shared_lib_lines=48,
            stream_fraction=0.1, hot_fraction=0.97, mem_ratio=0.4,
        ),
    ]
}


def spec_profile(name: str) -> BenchmarkProfile:
    try:
        return SPEC_PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown SPEC profile {name!r}") from None


def parsec_profile(name: str) -> BenchmarkProfile:
    try:
        return PARSEC_PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown PARSEC profile {name!r}") from None
