"""SMT (hyperthread) attacks and the Spectre-style covert channel.

The threat model covers attackers on "the same (hyperthreaded) or
different cores"; Section VIII argues that breaking the conventional
reuse channel also kills Spectre's transmit end.
"""

import pytest

from repro.attacks.smt import run_smt_flush_reload
from repro.attacks.spectre import run_spectre_covert_channel
from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
    TimeCacheConfig,
)
from repro.common.errors import ConfigError
from repro.common.units import KIB

from tests.conftest import tiny_config


def smt_config(enabled=True):
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=1,
            threads_per_core=2,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(sbit_dma_cycles=20),
        quantum_cycles=5_000,
        context_switch_cycles=50,
    )
    cfg.validate()
    return cfg if enabled else cfg.baseline()


class TestSmtFlushReload:
    def test_baseline_leaks_at_l1_speed(self):
        outcome = run_smt_flush_reload(smt_config(enabled=False))
        assert outcome.probe_hits == outcome.probe_total
        # sibling hyperthreads share the L1: some reloads are L1-fast
        l1 = smt_config().hierarchy.latency.l1_hit
        assert min(outcome.latencies) <= l1 + 2

    def test_timecache_blocks_sibling_hyperthread(self):
        outcome = run_smt_flush_reload(smt_config(enabled=True))
        assert outcome.probe_hits == 0

    def test_requires_smt(self):
        with pytest.raises(ConfigError):
            run_smt_flush_reload(tiny_config(num_cores=1))


class TestSpectreCovertChannel:
    def test_baseline_leaks_the_secret_byte(self):
        result = run_spectre_covert_channel(
            tiny_config(num_cores=2, enabled=False), secret=0x5A
        )
        assert result.leaked
        assert result.recovered == 0x5A

    def test_timecache_kills_the_transmit_end(self):
        result = run_spectre_covert_channel(
            tiny_config(num_cores=2, enabled=True), secret=0x5A
        )
        assert not result.leaked
        assert result.recovered is None
        assert result.probe_hits == 0

    def test_different_secret_values_recovered(self):
        for secret in (0, 17, 255):
            result = run_spectre_covert_channel(
                tiny_config(num_cores=2, enabled=False),
                secret=secret,
                rounds=2,
            )
            assert result.recovered == secret

    def test_rejects_out_of_range_secret(self):
        with pytest.raises(ConfigError):
            run_spectre_covert_channel(tiny_config(num_cores=2), secret=300)

    def test_needs_two_contexts(self):
        with pytest.raises(ConfigError):
            run_spectre_covert_channel(tiny_config(num_cores=1), secret=1)
