"""Configuration dataclasses for the simulator and the TimeCache defense.

Two canonical configurations are provided:

* :func:`paper_table1_gem5_config` — the paper's Table I gem5 setup
  (TimingSimpleCPU @ 2 GHz, 32K L1I/L1D, 2M LLC).  Useful for documentation
  and for the space-overhead arithmetic of Section VI-D, which depends only
  on cache geometry.
* :func:`scaled_experiment_config` — the configuration the benchmark
  harness actually simulates.  A pure-Python behavioral model runs ~1e5-1e6
  operations per experiment (gem5 ran 1e9 instructions), so caches are
  scaled down proportionally to keep working-set:cache ratios — and hence
  miss behavior — representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, cycles_from_us, is_power_of_two


@dataclass(frozen=True)
class LatencyConfig:
    """Access latencies (cycles) for each memory level.

    Values approximate a TimingSimpleCPU-style blocking hierarchy: what
    matters for both attacks and overhead shapes is the *separation*
    between the levels, not the absolute numbers.
    """

    l1_hit: int = 2
    l2_hit: int = 20
    dram: int = 200
    #: extra cycles to pull a modified line out of another core's L1
    #: (cache-to-cache transfer; exploited by Section VII-B attacks)
    remote_transfer: int = 15
    #: extra cycles for a dirty-line writeback on eviction
    writeback: int = 10
    #: latency observed by a clflush that finds the line cached
    flush_cached: int = 40
    #: latency of a clflush that aborts early because the line is absent
    flush_uncached: int = 12

    def validate(self) -> None:
        if not (0 < self.l1_hit < self.l2_hit < self.dram):
            raise ConfigError(
                "latencies must satisfy 0 < l1_hit < l2_hit < dram, got "
                f"{self.l1_hit}/{self.l2_hit}/{self.dram}"
            )
        if self.remote_transfer < 0:
            raise ConfigError("remote_transfer cannot be negative")
        if self.flush_uncached >= self.flush_cached:
            raise ConfigError(
                "clflush on a cached line must be slower than on an absent "
                f"line ({self.flush_cached} vs {self.flush_uncached})"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a single cache level (replacement is always LRU)."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64

    def validate(self) -> None:
        if self.line_bytes <= 0 or not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"{self.name}: set count {self.num_sets} must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class TimeCacheConfig:
    """Parameters of the TimeCache defense itself."""

    #: master switch — False simulates the unmodified baseline cache
    enabled: bool = True
    #: width of the per-line Tc timestamp (paper: 32)
    timestamp_bits: int = 32
    #: cycles per context switch spent on the s-bit DMA save+restore
    #: (paper: 1.08 us on a Xeon; converted at the 2 GHz gem5 clock)
    sbit_dma_cycles: int = 2160
    #: use the gate-level bit-serial comparator (slow, faithful) instead of
    #: the vectorized functional equivalent.  Both are property-tested to
    #: agree; experiments default to the fast path.
    gate_level_comparator: bool = False
    #: make clflush constant-time (Section VII-C mitigation)
    constant_time_flush: bool = False
    #: on a first access, wait for a DRAM response even when a lower cache
    #: level could answer (Section VII-B coherence-attack hardening)
    dram_latency_on_first_access: bool = False
    #: ablation: drop saved s-bits at every switch instead of save/restore
    #: (equivalent in effect to flushing the caching context every switch)
    reset_sbits_on_switch: bool = False
    #: Section VI-C scaling option: cap simultaneous sharers per line
    #: (limited-pointer directory, O(k log n) instead of O(n) bits).
    #: 0 = full bit-vector.  Overflow evicts a sharer's visibility,
    #: which costs extra first accesses but never leaks.  A context
    #: restore may transiently exceed the cap; it is re-enforced on the
    #: next s-bit insertion.
    max_sharers: int = 0

    def validate(self) -> None:
        if self.timestamp_bits < 2 or self.timestamp_bits > 64:
            raise ConfigError(
                f"timestamp_bits must be in [2, 64], got {self.timestamp_bits}"
            )
        if self.sbit_dma_cycles < 0:
            raise ConfigError("sbit_dma_cycles cannot be negative")
        if self.max_sharers < 0:
            raise ConfigError("max_sharers cannot be negative")


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the whole memory hierarchy."""

    num_cores: int = 1
    threads_per_core: int = 1
    #: which simulation engine services accesses:
    #: * ``"object"`` — the reference model (CacheLine objects, one
    #:   CacheSet per set).
    #: * ``"fast"``   — struct-of-arrays hot path
    #:   (:mod:`repro.memsys.fastengine`), semantics-identical and
    #:   differentially fuzzed against the object engine, ~an order of
    #:   magnitude faster.
    #: Every configuration runs on both.
    engine: str = "object"
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * KIB, ways=4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * KIB, ways=4)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 * MIB, ways=16)
    )
    latency: LatencyConfig = field(default_factory=LatencyConfig)

    def validate(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        if self.threads_per_core <= 0:
            raise ConfigError("threads_per_core must be positive")
        if self.engine not in ("object", "fast"):
            raise ConfigError(
                f"engine must be 'object' or 'fast', got {self.engine!r}"
            )
        for cache in (self.l1i, self.l1d, self.llc):
            cache.validate()
        if self.l1i.line_bytes != self.llc.line_bytes or (
            self.l1d.line_bytes != self.llc.line_bytes
        ):
            raise ConfigError("all cache levels must share one line size")
        if self.llc.size_bytes < self.l1d.size_bytes:
            raise ConfigError("LLC smaller than L1D breaks inclusion")
        self.latency.validate()

    @property
    def num_hw_contexts(self) -> int:
        return self.num_cores * self.threads_per_core

    @property
    def line_bytes(self) -> int:
        return self.llc.line_bytes


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timecache: TimeCacheConfig = field(default_factory=TimeCacheConfig)
    #: registered defense plugin to attach (see :mod:`repro.defenses`).
    #: Empty string = legacy wiring: no plugin is consulted and the
    #: ``timecache`` block alone decides the machine — every pre-zoo
    #: construction site keeps its exact behavior.
    defense: str = ""
    #: scheduler quantum, in cycles
    quantum_cycles: int = 50_000
    #: fixed (non-s-bit) cost of a context switch, in cycles
    context_switch_cycles: int = 400

    def validate(self) -> None:
        self.hierarchy.validate()
        self.timecache.validate()
        if self.quantum_cycles <= 0:
            raise ConfigError("quantum_cycles must be positive")
        if self.context_switch_cycles < 0:
            raise ConfigError("context_switch_cycles cannot be negative")

    def with_defense(self, name: str) -> "SimConfig":
        """Reshape into the named registered defense's machine (and stamp
        ``defense`` so the system attaches its runtime hooks)."""
        from repro.defenses import get_defense  # registry imports config

        return get_defense(name).configure(self)

    def with_timecache(self, **changes: object) -> "SimConfig":
        """Return a copy with TimeCache parameters replaced."""
        return replace(self, timecache=replace(self.timecache, **changes))

    def baseline(self) -> "SimConfig":
        """Return the same configuration with the defense disabled."""
        return self.with_timecache(enabled=False)


def paper_table1_real_config() -> Tuple[str, ...]:
    """The paper's Table I *real processor* row, for documentation/tests."""
    return (
        "Core: i7-7700, 3304.125 MHz",
        "L1D, L1I, L2, LLC cache: 32K, 32K, 256K, 8192K",
    )


def paper_table1_gem5_config() -> SimConfig:
    """The paper's Table I gem5 row: 2 GHz, 32K L1I/L1D, 2M LLC."""
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=1,
            threads_per_core=1,
            l1i=CacheConfig("L1I", 32 * KIB, ways=4),
            l1d=CacheConfig("L1D", 32 * KIB, ways=4),
            llc=CacheConfig("LLC", 2 * MIB, ways=16),
        ),
    )
    cfg.validate()
    return cfg


def scaled_experiment_config(
    num_cores: int = 1,
    llc_kib: int = 128,
    l1_kib: int = 4,
    quantum_cycles: int = 400_000,
    sbit_dma_cycles: Optional[int] = None,
    engine: str = "object",
) -> SimConfig:
    """Down-scaled configuration used by the benchmark harness.

    Cache sizes shrink by ~16x relative to Table I because the Python model
    executes ~1e5-1e6 operations per run instead of gem5's 1e9
    instructions; the workload generators shrink their footprints by the
    same factor, preserving miss behavior.

    ``sbit_dma_cycles`` defaults to the paper's 1.08 us at gem5's 2 GHz
    clock, scaled down with the LLC size (the DMA moves the s-bit
    array, whose size is proportional to the number of lines).
    """
    if sbit_dma_cycles is None:
        full = cycles_from_us(1.08, 2.0)
        sbit_dma_cycles = max(1, int(full * (llc_kib * KIB) / (2 * MIB)))
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=num_cores,
            threads_per_core=1,
            engine=engine,
            l1i=CacheConfig("L1I", l1_kib * KIB, ways=4),
            l1d=CacheConfig("L1D", l1_kib * KIB, ways=4),
            llc=CacheConfig("LLC", llc_kib * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(sbit_dma_cycles=sbit_dma_cycles),
        quantum_cycles=quantum_cycles,
    )
    cfg.validate()
    return cfg
