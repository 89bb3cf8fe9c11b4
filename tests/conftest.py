"""Shared fixtures: small, fast configurations for unit/integration tests.

Tests run on deliberately tiny caches (16 KiB LLC, 1 KiB L1s) and short
quanta so every mechanism — fills, evictions, context switches, rollover —
is exercised with little simulated work.
"""

import pytest

from repro.common import scaled_experiment_config
from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
    TimeCacheConfig,
)
from repro.common.units import KIB


def tiny_config(
    num_cores: int = 1,
    enabled: bool = True,
    quantum: int = 5_000,
    timestamp_bits: int = 32,
    **tc_kwargs,
) -> SimConfig:
    """A minimal machine: 1 KiB L1s (4 sets x 4 ways), 16 KiB LLC, under
    TimeCache, or the undefended control with ``enabled=False``."""
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=num_cores,
            threads_per_core=1,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(
            timestamp_bits=timestamp_bits,
            sbit_dma_cycles=20,
            **tc_kwargs,
        ),
        quantum_cycles=quantum,
        context_switch_cycles=50,
    )
    cfg.validate()
    return cfg if enabled else cfg.baseline()


@pytest.fixture
def config():
    return tiny_config()


@pytest.fixture
def baseline_config():
    return tiny_config(enabled=False)


@pytest.fixture
def two_core_config():
    return tiny_config(num_cores=2)


@pytest.fixture
def experiment_config():
    """The (scaled-down further) experiment configuration for workload
    tests: a bit larger than tiny so profiles behave sanely."""
    return scaled_experiment_config(
        num_cores=1, llc_kib=32, l1_kib=2, quantum_cycles=20_000
    )
