"""Shared infrastructure: clocks, configuration, RNG, statistics, units.

Everything in :mod:`repro.common` is substrate-neutral — it knows nothing
about caches or TimeCache specifically.  The simulator core
(:mod:`repro.memsys`), the contribution (:mod:`repro.core`), the OS layer
(:mod:`repro.os`) and the attack/workload layers all build on it.
"""

from repro.common.clock import GlobalClock
from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    LatencyConfig,
    SimConfig,
    TimeCacheConfig,
    paper_table1_gem5_config,
    paper_table1_real_config,
    scaled_experiment_config,
)
from repro.common.errors import (
    CalibrationError,
    ConfigError,
    ReproError,
    SchedulerError,
    SimulationError,
)
from repro.common.rng import DeterministicRng
from repro.common.stats import Counter, StatGroup
from repro.common.units import (
    KIB,
    MIB,
    cycles_from_ns,
    cycles_from_us,
    geometric_mean,
    mpki,
)

__all__ = [
    "CacheConfig",
    "CalibrationError",
    "ConfigError",
    "Counter",
    "DeterministicRng",
    "GlobalClock",
    "HierarchyConfig",
    "KIB",
    "LatencyConfig",
    "MIB",
    "ReproError",
    "SchedulerError",
    "SimConfig",
    "SimulationError",
    "StatGroup",
    "TimeCacheConfig",
    "cycles_from_ns",
    "cycles_from_us",
    "geometric_mean",
    "mpki",
    "paper_table1_gem5_config",
    "paper_table1_real_config",
    "scaled_experiment_config",
]
