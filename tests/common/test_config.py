"""Unit tests for configuration validation and canonical configs."""

import pytest

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
from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig("L1D", 32 * KIB, ways=4)
        assert c.num_sets == 128
        assert c.num_lines == 512
        c.validate()

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KIB, ways=4, line_bytes=48).validate()

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 1000, ways=3).validate()

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 3 * 64 * 4, ways=4).validate()

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KIB, ways=0).validate()


class TestLatencyConfig:
    def test_default_is_valid(self):
        LatencyConfig().validate()

    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            LatencyConfig(l1_hit=50, l2_hit=20).validate()

    def test_flush_ordering_enforced(self):
        with pytest.raises(ConfigError):
            LatencyConfig(flush_cached=10, flush_uncached=20).validate()


class TestTimeCacheConfig:
    def test_default_is_valid(self):
        TimeCacheConfig().validate()

    def test_timestamp_width_bounds(self):
        with pytest.raises(ConfigError):
            TimeCacheConfig(timestamp_bits=1).validate()
        with pytest.raises(ConfigError):
            TimeCacheConfig(timestamp_bits=65).validate()

    def test_negative_dma_rejected(self):
        with pytest.raises(ConfigError):
            TimeCacheConfig(sbit_dma_cycles=-1).validate()


class TestHierarchyConfig:
    def test_default_is_valid(self):
        HierarchyConfig().validate()

    def test_context_count(self):
        h = HierarchyConfig(num_cores=2, threads_per_core=2)
        assert h.num_hw_contexts == 4

    def test_rejects_llc_smaller_than_l1(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                l1d=CacheConfig("L1D", 64 * KIB, ways=4),
                llc=CacheConfig("LLC", 32 * KIB, ways=8),
            ).validate()

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                l1d=CacheConfig("L1D", 32 * KIB, ways=4, line_bytes=32),
            ).validate()


class TestSimConfig:
    def test_baseline_disables_timecache_only(self):
        cfg = SimConfig()
        base = cfg.baseline()
        assert not base.timecache.enabled
        assert cfg.timecache.enabled  # original untouched (frozen)
        assert base.hierarchy == cfg.hierarchy

    def test_with_timecache_replaces_fields(self):
        cfg = SimConfig().with_timecache(constant_time_flush=True)
        assert cfg.timecache.constant_time_flush

    def test_rejects_bad_quantum(self):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), quantum_cycles=0).validate()


class TestCanonicalConfigs:
    def test_paper_gem5_config_matches_table1(self):
        cfg = paper_table1_gem5_config()
        assert cfg.hierarchy.l1i.size_bytes == 32 * KIB
        assert cfg.hierarchy.l1d.size_bytes == 32 * KIB
        assert cfg.hierarchy.llc.size_bytes == 2 * MIB

    def test_paper_real_config_documents_i7(self):
        rows = paper_table1_real_config()
        assert any("i7-7700" in row for row in rows)
        assert any("8192K" in row for row in rows)

    def test_scaled_config_valid_and_scaled(self):
        cfg = scaled_experiment_config()
        cfg.validate()
        assert cfg.hierarchy.llc.size_bytes < 2 * MIB
        two_core = scaled_experiment_config(llc_kib=64, num_cores=2)
        two_core.validate()
        assert two_core.hierarchy.num_cores == 2
        assert two_core.hierarchy.llc.size_bytes == 64 * KIB

    def test_scaled_config_dma_scales_with_llc(self):
        small = scaled_experiment_config(llc_kib=128)
        large = scaled_experiment_config(llc_kib=512)
        assert large.timecache.sbit_dma_cycles > small.timecache.sbit_dma_cycles
